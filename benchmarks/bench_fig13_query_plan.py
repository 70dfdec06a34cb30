"""Figure 13 — the physical plan of Q2's rewriting.

The paper shows PostgreSQL's EXPLAIN output for the translated Q2: the
lineitem partitions joined on their tuple-id columns, the ψ conditions as
join filters, and each WHERE predicate at the scan of the partition that
holds its column.  This benchmark produces the plan a request for the same
rewriting runs here (optimized, planned with the cost model's access paths,
fused), saves its EXPLAIN and EXPLAIN ANALYZE, and asserts those
properties.  Where the paper's plan merge-joins partitions sorted on the
tuple id, this one probes each partition's tid index: one Index Nested Loop
Join per merge, the plan PostgreSQL picks once the experiment's indexes
exist.
"""

import re

from repro.core.translate import translate
from repro.relational import explain, explain_analyze, optimize
from repro.relational.physical import FusedPipeline, IndexNestedLoopJoin, SeqScan
from repro.relational.planner import plan_physical
from repro.tpch import q2_inner

from benchmarks.conftest import BASE_SCALE, uncertain_db, write_result


def q2_physical(bundle):
    """The plan a request for Q2's rewriting runs."""
    translated = translate(q2_inner(), bundle.udb)
    return plan_physical(optimize(translated.plan), fuse=True)


def nodes(plan, kind):
    if isinstance(plan, kind):
        yield plan
    for child in plan.children:
        yield from nodes(child, kind)


def test_fig13_q2_plan(benchmark):
    """Produce and validate the Q2 plan (Figure 13 analogue)."""
    bundle = uncertain_db(BASE_SCALE, 0.1, 0.1)
    physical = benchmark.pedantic(lambda: q2_physical(bundle), rounds=3, iterations=1)
    text = explain(physical)
    write_result("fig13_q2_plan.txt", text)

    # the three partition merges probe the partitions' tid indexes ...
    joins = list(nodes(physical, IndexNestedLoopJoin))
    assert len(joins) == text.count("Index Nested Loop Join") == 3
    for join in joins:
        ((outer, inner),) = join.pairs
        assert outer.startswith("tid_l") and inner.startswith("tid_l")
    assert len(re.findall(r"Index Cond: \(tid_l(__r)? = tid_l(__r)?\)", text)) == 6
    # ... with the psi condition guarding each as a join filter
    # (var mismatch OR rng equal) ...
    assert all(join.residual is not None for join in joins)
    assert len(re.findall(r"Join Filter: .*<>.*OR.*=", text)) == 3
    # ... and each WHERE predicate at the partition that holds its column:
    # shipdate's over its Seq Scan, quantity's and discount's on the probes
    (pipeline,) = nodes(physical, FusedPipeline)
    assert isinstance(pipeline.source, SeqScan)
    assert pipeline.source.name == "u_lineitem_shipdate"
    assert "shipdate BETWEEN" in repr(pipeline.predicate)
    probe_filters = {
        join.inner.name: [repr(predicate) for predicate, _schema in join.inner_filters]
        for join in joins
    }
    assert probe_filters == {
        "u_lineitem_quantity": ["(l.quantity < 24)"],
        "u_lineitem_discount": ["(l.discount BETWEEN 0.05 AND 0.08)"],
        "u_lineitem_extendedprice": [],
    }
    assert text.count("Probe Filter:") == 2


def test_fig13_q2_plan_analyze(benchmark):
    """EXPLAIN ANALYZE of the same plan: per-operator rows and batches."""
    bundle = uncertain_db(BASE_SCALE, 0.1, 0.1)

    def build():
        _result, text = explain_analyze(q2_physical(bundle))
        return text

    text = benchmark.pedantic(build, rounds=3, iterations=1)
    write_result("fig13_q2_plan_analyze.txt", text)

    # every operator that ran reports what it actually produced, in
    # batches; a probed Index Scan only names the index its join looks up
    assert text.count("actual rows=") == 5
    for line in text.splitlines():
        if "(rows=" in line and "Index Scan using" not in line:
            assert "actual rows=" in line and "batches=" in line


def test_fig13_translation_is_parsimonious(benchmark):
    """Section 1's parsimonious-translation claim, counted on Q2:
    one selection per predicate, merges become joins, nothing else."""
    bundle = uncertain_db(BASE_SCALE, 0.1, 0.1)

    def count_ops():
        from repro.relational.algebra import Join, Plan, Select

        translated = translate(q2_inner(), bundle.udb)

        def count(node: Plan, kind) -> int:
            return int(isinstance(node, kind)) + sum(
                count(c, kind) for c in node.children
            )

        return count(translated.plan, Join), count(translated.plan, Select)

    joins, selects = benchmark.pedantic(count_ops, rounds=3, iterations=1)
    # Q2 touches 4 lineitem attributes -> 3 merges -> exactly 3 joins
    assert joins == 3
    # the WHERE clause's three predicates are three selections, each on the
    # partition that holds its column (where Figure 13's plan has them)
    assert selects == 3
