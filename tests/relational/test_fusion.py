"""Tests for the planner's pipeline fuser and the compile cache.

The fuser must collapse scan→filter→project chains into ``Fused
Pipeline`` nodes and fold the standalone ``Project`` operators that
bracket partition merges into the join emits — EXPLAIN of a fused
translated plan shows no ``Project`` nodes at all.  The compile cache must
make the second execution of a query structurally free of codegen.
"""

from __future__ import annotations

import pytest

from repro.core import PreparedQuery, UDatabase, execute_query
from repro.core.query import Poss, Rel, UJoin, UProject, USelect
from repro.core.translate import _cached_physical, query_cache_key
from repro.relational import Relation, expressions, physical
from repro.relational.algebra import Join, Project, Rename, Scan, Select, evaluate
from repro.relational.expressions import (
    col,
    compile_cache_stats,
    executing,
    lit,
    reset_compile_cache,
)
from repro.relational.explain import explain, explain_analyze
from repro.relational.physical import FusedPipeline, HashJoin, execute
from repro.relational.planner import plan_physical
from repro.sql import parse
from repro.tpch import q1
from repro.ugen import generate_uncertain

POINT_LOOKUP = parse(
    "possible (select o.orderdate, o.totalprice, o.orderstatus "
    "from orders o where o.orderkey = $1)"
)


def small_udb() -> UDatabase:
    orders = Relation(
        ["orderkey", "orderdate", "custkey"],
        [(i, 19950000 + i % 30, i % 10) for i in range(60)],
    )
    customer = Relation(
        ["custkey", "mktsegment"],
        [(i, "BUILDING" if i % 3 == 0 else "AUTO") for i in range(10)],
    )
    return UDatabase.from_certain({"orders": orders, "customer": customer})


def query():
    o = USelect(Rel("orders", "o"), col("o.orderdate") > lit(19950010))
    c = USelect(Rel("customer", "c"), col("c.mktsegment").eq(lit("BUILDING")))
    joined = UJoin(c, o, col("c.custkey").eq(col("o.custkey")))
    return Poss(UProject(joined, ["o.orderkey", "o.orderdate"]))


def _labels(plan) -> str:
    return " ".join([type(plan).__name__, *map(_labels, plan.children)])


class TestFusion:
    def test_scan_filter_project_chain_fuses(self):
        rel = Relation(["a", "b", "c"], [(i, i * 2, i * 3) for i in range(20)])
        plan = Project(Select(Scan(rel, "t"), col("a") > lit(5)), ["c", "a"])
        fused = plan_physical(plan)
        assert isinstance(fused, FusedPipeline)
        assert execute(fused) == evaluate(plan)
        text = explain(fused)
        assert "Fused Pipeline" in text
        assert "Project" not in text

    def test_fusion_reaches_through_renames(self):
        rel = Relation(["a", "b"], [(i, i % 4) for i in range(10)])
        plan = Project(
            Select(Rename(Scan(rel, "t"), {"a": "x.a"}), col("x.a") > lit(2)),
            ["x.a"],
        )
        fused = plan_physical(plan)
        assert isinstance(fused, FusedPipeline)
        assert fused.schema.names == ["x.a"]
        assert execute(fused) == evaluate(plan)

    def test_projection_folds_into_join(self):
        r = Relation(["r.a", "r.b"], [(i % 3, i) for i in range(9)])
        s = Relation(["s.c", "s.d"], [(i % 3, i * 10) for i in range(6)])
        plan = Project(
            Join(Scan(r, "r"), Scan(s, "s"), col("r.a").eq(col("s.c"))),
            ["s.d", "r.b"],
        )
        fused = plan_physical(plan)
        assert isinstance(fused, HashJoin)
        assert fused.output_positions == [3, 1]
        assert fused.schema.names == ["s.d", "r.b"]
        assert "Output: s.d, r.b" in explain(fused)

    def test_translated_plan_has_no_standalone_projects(self):
        """The inter-merge Projects disappear into the join emits."""
        udb = small_udb()
        from repro.core.translate import translate
        from repro.relational.algebra import Distinct
        from repro.relational.optimizer import optimize

        inner = translate(query().child, udb)
        plan = optimize(Distinct(Project(inner.plan, list(inner.value_names))))
        fused = plan_physical(plan)
        assert "Project" in _labels(plan)  # the logical plan has them
        text = explain(fused)
        assert "Project" not in text.replace("Fused Pipeline", "")
        assert execute(fused) == evaluate(plan)

    def test_explain_analyze_reports_per_pipeline_counts(self):
        rel = Relation(["a", "b"], [(i, i) for i in range(10)])
        plan = Project(Select(Scan(rel, "t"), col("a") > lit(4)), ["b"])
        fused = plan_physical(plan)
        result, text = explain_analyze(fused)
        assert len(result) == 5
        first = text.splitlines()[0]
        assert "Fused Pipeline" in first and "actual rows=5" in first


@pytest.fixture(scope="module")
def indexed_tpch():
    udb = generate_uncertain(scale=0.001, x=0.05, z=0.25, seed=1).udb
    udb.build_indexes()
    return udb


class TestCompileCache:
    def test_second_execution_pays_no_codegen(self):
        udb = small_udb()
        reset_compile_cache()
        execute_query(query(), udb)
        first = compile_cache_stats()
        assert first["misses"] > 0  # the first run had to generate code
        execute_query(query(), udb)
        second = compile_cache_stats()
        assert second["misses"] == first["misses"]  # no codegen on run two
        # ... and no lookup either: the cached plan's operators hold their kernels
        assert second["hits"] == first["hits"]

    @pytest.mark.parametrize(
        "query, params", [(POINT_LOOKUP, (1,)), (q1(), ())], ids=["point", "q1"]
    )
    def test_later_executions_of_a_cached_plan_derive_no_kernel_key(
        self, query, params, indexed_tpch, monkeypatch
    ):
        """Counted, never timed: what an operator needs to pick its kernel
        is fixed once planning ends, so only a plan's first execution may
        derive a kernel-cache key (three index joins per point lookup once
        made that the larger part of a 0.2 ms request)."""
        calls = {"_structural_key": 0, "probe_kernel": 0}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(expressions, "_structural_key")
        counting(physical, "probe_kernel")
        udb = indexed_tpch
        first = PreparedQuery(query, udb).run(*params)
        assert len(first) > 0 and calls["probe_kernel"] > 0
        record, was_cached = _cached_physical(query, udb, query_cache_key(query, udb))
        assert was_cached
        plan = record.physical
        calls.update(_structural_key=0, probe_kernel=0)
        with executing(params):
            for _ in range(3):
                assert execute(plan) == first
        assert calls == {"_structural_key": 0, "probe_kernel": 0}

    def test_cache_distinguishes_schemas(self):
        from repro.relational.expressions import compile_expression
        from repro.relational.schema import Schema

        predicate = col("a") > lit(1)
        one = compile_expression(predicate, Schema(["a", "b"]))
        other = compile_expression(predicate, Schema(["b", "a"]))
        assert one((0, 5)) is False and other((5, 0)) is False
        assert one((2, 0)) is True and other((0, 2)) is True

    def test_cache_distinguishes_literal_types(self):
        from repro.relational.expressions import compile_expression
        from repro.relational.schema import Schema

        schema = Schema(["a"])
        as_int = compile_expression(col("a").eq(lit(1)), schema)
        as_bool = compile_expression(col("a").eq(lit(True)), schema)
        assert as_int is not as_bool
