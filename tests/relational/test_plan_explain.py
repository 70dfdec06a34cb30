"""Tests for running plans over scans, planner configuration, and EXPLAIN."""

import pytest

from repro.relational import (
    Join,
    Project,
    Relation,
    Scan,
    Select,
    col,
    explain,
    explain_logical,
    lit,
    run,
)
from repro.relational.planner import Planner, plan_physical
from repro.relational.physical import HashJoin, MergeJoin


@pytest.fixture
def r():
    return Scan(Relation(["k", "v"], [(1, "a"), (2, "b")]), name="r")


@pytest.fixture
def s():
    return Scan(Relation(["k2", "w"], [(1, 10), (2, 20)]), name="s")


class TestRun:
    def test_run_join(self, r, s):
        out = run(Join(r, s, col("k").eq(col("k2"))))
        assert sorted(out.rows) == [(1, "a", 1, 10), (2, "b", 2, 20)]

    def test_run_unoptimized_matches(self, r, s):
        plan = Select(Join(r, s, col("k").eq(col("k2"))), col("v").eq(lit("a")))
        a = run(plan, optimize_first=True)
        b = run(plan, optimize_first=False)
        assert sorted(a.rows) == sorted(b.rows)

    def test_run_modes_and_access_paths_match(self, r, s):
        plan = Select(Join(r, s, col("k").eq(col("k2"))), col("w") > lit(10))
        expected = [(2, "b", 2, 20)]
        assert run(plan).rows == expected
        assert run(plan, mode="rows").rows == expected
        assert run(plan, use_indexes=False).rows == expected

    def test_scan_alias(self, r):
        scan = Scan(r.relation, name="r", alias="t")
        assert scan.schema.names == ["t.k", "t.v"]


class TestPlannerConfig:
    def test_hash_join_default(self, r, s):
        physical = plan_physical(Join(r, s, col("k").eq(col("k2"))))
        assert isinstance(physical, HashJoin)

    def test_merge_join_preferred(self, r, s):
        physical = Planner(prefer_merge_join=True).compile(Join(r, s, col("k").eq(col("k2"))))
        assert isinstance(physical, MergeJoin)

    def test_merge_join_results_match(self, r, s):
        plan = Join(r, s, col("k").eq(col("k2")))
        assert sorted(run(plan).rows) == sorted(run(plan, prefer_merge_join=True).rows)


class TestExplain:
    def test_explain_contains_operators(self, r, s):
        plan = Project(Join(r, s, col("k").eq(col("k2"))), ["v", "w"])
        text = explain(plan_physical(plan, fuse=True))
        assert "Hash Join" in text
        assert "Seq Scan on r" in text
        assert "rows=" in text

    def test_explain_merge_join_shows_merge_cond(self, r, s):
        plan = Join(r, s, col("k").eq(col("k2")))
        text = explain(plan_physical(plan, prefer_merge_join=True, fuse=True))
        assert "Merge Join" in text
        assert "Merge Cond" in text
        assert "Sort" in text

    def test_explain_logical(self, r):
        text = explain_logical(Select(r, col("k") > lit(0)))
        assert "Filter" in text and "Seq Scan" in text

    def test_explain_dispatches_on_type(self, r):
        plan = Select(r, col("k") > lit(0))
        assert "Filter" in explain(plan)  # logical path
        assert "Filter" in explain(plan_physical(plan))  # physical path
