"""Predicate caching on immutable segments, operator by operator.

A ``Fused Pipeline`` over a ``Seq Scan`` whose predicate reads no ``$n``
keeps, per segment, the positions it keeps and the output columns
gathered at them; an ``Index Nested Loop Join`` whose probe filters read
no ``$n`` keeps, per inner segment, the probe table restricted to the
rows that pass.  Both are held on the plan node, keyed weakly by the
segment.  These tests pin what that changes and what it must not: the
answers (every batch size, dead rows, several segments), EXPLAIN text,
the accounting of a cached scan, and the lifetime of an entry.
"""

from __future__ import annotations

import gc

from repro.relational import (
    Relation,
    Scan,
    Select,
    col,
    explain,
    explain_analyze,
    lit,
    optimize,
    plan_physical,
)
from repro.relational.algebra import Join, evaluate
from repro.relational.expressions import Comparison, Param, executing
from repro.relational.index import ensure_index
from repro.relational.physical import FusedPipeline, IndexNestedLoopJoin, execute

ROWS = [(i, f"k{i % 4}", None if i % 9 == 0 else i % 13) for i in range(300)]


def _relation(rows=ROWS):
    return Relation(["id", "kind", "score"], rows)


def _nodes(physical, kind):
    stack, out = [physical], []
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if isinstance(node, kind):
            out.append(node)
    return out


def _scan_plan(relation, predicate):
    return plan_physical(optimize(Select(Scan(relation, name="t"), predicate)))


def _versions():
    """One clean segment; three segments; dead rows in the base and in an
    appended segment."""
    base = _relation()
    grown = base.with_appended([(i, "k1", i % 5) for i in range(300, 340)])
    grown = grown.with_appended([(i, "k2", None) for i in range(340, 350)])
    dead = grown.with_deleted([0, 3, 12, 13, 14, 305, 306, 341])
    return [base, grown, dead]


def test_a_cached_scan_filter_answers_like_the_reference_on_every_version_shape():
    predicate = Comparison(">", col("score"), lit(6))
    for relation in _versions():
        physical = _scan_plan(relation, predicate)
        (pipeline,) = _nodes(physical, FusedPipeline)
        assert pipeline._kept is not None
        expected = evaluate(Select(Scan(relation, name="t"), predicate)).rows
        for size in (1, 7, 1024):
            for _ in range(2):  # building the entries, then reading them
                assert execute(physical, batch_size=size).rows == expected
        assert len(pipeline._kept) == len(relation.segments())


def test_a_cached_probe_filter_answers_like_the_reference_on_every_version_shape():
    for relation in _versions():
        ensure_index(relation, ["id"], kind="hash")
        outer = Scan(Relation(["ref"], [(i,) for i in range(0, 360, 2)]), name="o")
        inner = Select(Scan(relation, name="t"), Comparison("<>", col("kind"), lit("k1")))
        logical = Join(outer, inner, Comparison("=", col("ref"), col("id")))
        physical = plan_physical(optimize(logical))
        (join,) = _nodes(physical, IndexNestedLoopJoin)
        assert join._tables is not None
        assert "Probe Filter: (kind <> 'k1')" in explain(physical)
        expected = sorted(evaluate(logical).rows)
        for size in (1, 1024):
            for _ in range(2):
                assert sorted(execute(physical, batch_size=size).rows) == expected
        assert len(join._tables) == len(relation.segments())


def test_a_parameter_keeps_the_per_execution_path():
    relation = _relation()
    physical = _scan_plan(relation, Comparison(">", col("score"), Param(0)))
    (pipeline,) = _nodes(physical, FusedPipeline)
    assert pipeline._kept is None
    for bound in (3, 11):
        with executing((bound,)):
            assert sorted(execute(physical).rows) == sorted(
                row for row in ROWS if row[2] is not None and row[2] > bound
            )


def test_explain_is_unchanged_and_analyze_reports_the_rows_the_cache_served():
    relation = _versions()[-1]
    physical = _scan_plan(relation, Comparison(">", col("score"), lit(6)))
    text = explain(physical)
    for _ in range(2):  # a cold and a warm execution account alike
        result, analyzed, data = explain_analyze(physical, batch_size=64, trace=True)
        assert explain(physical) == text
        kept = len(result)
        assert f"Fused Pipeline  (rows={int(physical.estimated_rows)}) (actual rows={kept} " in analyzed
        assert f"Seq Scan on t  (rows={len(relation)}) (actual rows={len(relation)} batches=0)" in analyzed
        (scan,) = data["operators"]["children"]
        assert scan["operator"] == "Seq Scan on t"
        assert (scan["actual_rows"], scan["actual_batches"]) == (len(relation), 0)


def test_an_entry_lives_no_longer_than_its_segment():
    relation = _relation()
    physical = _scan_plan(relation, Comparison(">", col("score"), lit(6)))
    (pipeline,) = _nodes(physical, FusedPipeline)
    appended = relation.with_appended([(1000, "k0", 12)])
    pipeline.source.relation = appended
    execute(physical)
    assert len(pipeline._kept) == 2
    pipeline.source.relation = relation
    del appended
    gc.collect()
    assert len(pipeline._kept) == 1  # the appended segment died, and its entry
