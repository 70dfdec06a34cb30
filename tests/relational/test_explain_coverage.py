"""EXPLAIN coverage for every physical operator and plan shape."""

import pytest

from repro.relational import (
    Difference,
    Distinct,
    Extend,
    Join,
    Product,
    Project,
    ProjectAs,
    Relation,
    Rename,
    Scan,
    Select,
    SemiJoin,
    Union,
    col,
    explain,
    lit,
)
from repro.relational.planner import plan_physical


@pytest.fixture
def scans():
    r = Scan(Relation(["a", "b"], [(1, 2)] * 5), "r")
    s = Scan(Relation(["c", "d"], [(1, 9)] * 5), "s")
    return r, s


def text_of(plan):
    return explain(plan_physical(plan))


class TestOperatorLabels:
    def test_filter(self, scans):
        r, _ = scans
        assert "Filter" in text_of(Select(r, col("a") > lit(0)))

    # over a scan a projection fuses into a ``Fused Pipeline``: these
    # project a ``Distinct``, which nothing fuses
    def test_projection(self, scans):
        r, _ = scans
        out = text_of(Project(Distinct(r), ["b"]))
        assert "Project" in out and "Output: b" in out

    def test_project_as(self, scans):
        r, _ = scans
        out = text_of(ProjectAs(Distinct(r), [("a", "x"), ("a", "y")]))
        assert "Project" in out and "a AS x" in out

    def test_extend(self, scans):
        r, _ = scans
        out = text_of(Extend(r, [("z", lit(None))]))
        assert "Extend" in out and "AS z" in out

    def test_hash_join(self, scans):
        r, s = scans
        out = text_of(Join(r, s, col("a").eq(col("c"))))
        assert "Hash Join" in out and "Hash Cond" in out

    def test_nested_loop(self, scans):
        r, s = scans
        out = text_of(Join(r, s, col("a") < col("c")))
        assert "Nested Loop" in out and "Join Filter" in out

    def test_semi_join(self, scans):
        r, s = scans
        out = text_of(SemiJoin(r, s, col("a").eq(col("c"))))
        assert "Semi Join" in out

    def test_product(self, scans):
        r, s = scans
        assert "Nested Loop" in text_of(Product(r, s))

    def test_union(self, scans):
        r, _ = scans
        out = text_of(Union(Project(r, ["a"]), Project(r, ["b"])))
        assert "Append" in out

    def test_difference(self, scans):
        r, _ = scans
        out = text_of(Difference(Project(r, ["a"]), Project(r, ["b"])))
        assert "SetOp Except" in out

    def test_distinct(self, scans):
        r, _ = scans
        assert "HashAggregate" in text_of(Distinct(r))

    def test_rename(self, scans):
        r, _ = scans
        assert "Rename" in text_of(Rename(r, {"a": "z"}))


class TestPlanShape:
    def test_row_estimates_shown(self, scans):
        r, _ = scans
        assert "rows=5" in text_of(r)

    def test_children_indented(self, scans):
        r, s = scans
        out = text_of(Join(r, s, col("a").eq(col("c"))))
        lines = out.splitlines()
        scan_lines = [l for l in lines if "Seq Scan" in l]
        assert len(scan_lines) == 2
        assert all(l.lstrip().startswith("->") for l in scan_lines)

    def test_unknown_logical_node_rejected(self):
        from repro.relational.algebra import Plan
        from repro.relational.planner import Planner

        class Bogus(Plan):
            pass

        with pytest.raises(TypeError):
            Planner().compile(Bogus())
