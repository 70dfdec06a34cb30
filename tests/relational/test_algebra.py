"""Tests for logical plan nodes: schema computation and validation, and
``evaluate``, the reference, against answers written out by hand."""

import pytest

from repro.relational.algebra import (
    Difference,
    Distinct,
    Extend,
    Join,
    Product,
    Project,
    ProjectAs,
    Rename,
    Scan,
    Select,
    SemiJoin,
    Union,
    evaluate,
)
from repro.relational.expressions import col, lit
from repro.relational.relation import Relation
from repro.relational.schema import SchemaError, UnknownColumnError


@pytest.fixture
def r_scan():
    return Scan(Relation(["a", "b"], [(1, "x")]), name="r")


@pytest.fixture
def s_scan():
    return Scan(Relation(["c", "d"], [(2, "y")]), name="s")


class TestSchemas:
    def test_scan_schema(self, r_scan):
        assert r_scan.schema.names == ["a", "b"]

    def test_scan_alias_qualifies(self):
        scan = Scan(Relation(["a"], []), name="r", alias="t")
        assert scan.schema.names == ["t.a"]

    def test_select_preserves_schema(self, r_scan):
        assert Select(r_scan, col("a") > lit(0)).schema.names == ["a", "b"]

    def test_select_validates_columns_eagerly(self, r_scan):
        with pytest.raises(UnknownColumnError):
            Select(r_scan, col("zzz") > lit(0))

    def test_project_schema(self, r_scan):
        assert Project(r_scan, ["b"]).schema.names == ["b"]

    def test_project_as_schema(self, r_scan):
        node = ProjectAs(r_scan, [("a", "x1"), ("a", "x2")])
        assert node.schema.names == ["x1", "x2"]

    def test_extend_schema(self, r_scan):
        node = Extend(r_scan, [("z", lit(0))])
        assert node.schema.names == ["a", "b", "z"]

    def test_join_schema_concat(self, r_scan, s_scan):
        node = Join(r_scan, s_scan, col("a").eq(col("c")))
        assert node.schema.names == ["a", "b", "c", "d"]

    def test_join_validates_predicate(self, r_scan, s_scan):
        with pytest.raises(UnknownColumnError):
            Join(r_scan, s_scan, col("nope").eq(col("c")))

    def test_product_schema(self, r_scan, s_scan):
        assert Product(r_scan, s_scan).schema.names == ["a", "b", "c", "d"]

    def test_union_arity_checked(self, r_scan):
        with pytest.raises(SchemaError):
            Union(r_scan, Scan(Relation(["x"], []), "t"))

    def test_union_takes_left_names(self, r_scan):
        other = Scan(Relation(["p", "q"], []), "t")
        assert Union(r_scan, other).schema.names == ["a", "b"]

    def test_difference_arity_checked(self, r_scan):
        with pytest.raises(SchemaError):
            Difference(r_scan, Scan(Relation(["x"], []), "t"))

    def test_distinct_preserves(self, r_scan):
        assert Distinct(r_scan).schema.names == ["a", "b"]

    def test_rename_schema(self, r_scan):
        assert Rename(r_scan, {"a": "z"}).schema.names == ["z", "b"]


class TestTreeStructure:
    def test_children(self, r_scan, s_scan):
        join = Join(r_scan, s_scan, col("a").eq(col("c")))
        assert join.children == (r_scan, s_scan)
        assert r_scan.children == ()

    def test_with_children_rebuilds(self, r_scan, s_scan):
        join = Join(r_scan, s_scan, col("a").eq(col("c")))
        swapped = join.with_children([s_scan, r_scan])
        assert swapped.schema.names == ["c", "d", "a", "b"]

    def test_scan_with_children_rejects(self, r_scan):
        with pytest.raises(ValueError):
            r_scan.with_children([r_scan])

    def test_node_labels(self, r_scan):
        assert "Seq Scan" in r_scan.node_label()
        assert "Filter" in Select(r_scan, col("a") > lit(0)).node_label()
        assert "Project" in Project(r_scan, ["a"]).node_label()


class TestEvaluate:
    """Each node's answer, written out: NULL keys never join, ``1`` joins
    ``1.0``, a difference is a set, a semi-join keeps each left row once."""

    L = Relation(["l.k", "l.v"], [(1, "a"), (None, "b"), (2, "c"), (1, "a")])
    R = Relation(["r.k", "r.w"], [(1.0, 10), (None, 20), (1, 30), (3, 40)])

    def test_equi_join_with_residual(self):
        plan = Join(
            Scan(self.L, "l"), Scan(self.R, "r"), col("l.k").eq(col("r.k")) & (col("r.w") > lit(10))
        )
        assert evaluate(plan).rows == [(1, "a", 1, 30), (1, "a", 1, 30)]

    def test_theta_join_and_product(self):
        theta = Join(Scan(self.L, "l"), Scan(self.R, "r"), col("l.k") > col("r.k"))
        assert evaluate(theta).rows == [(2, "c", 1.0, 10), (2, "c", 1, 30)]
        assert len(evaluate(Product(Scan(self.L, "l"), Scan(self.R, "r")))) == 16

    @pytest.mark.parametrize(
        "predicate",
        [col("l.k").eq(col("r.k")), col("l.k").eq(col("r.k")) & (col("r.w") >= lit(10))],
        ids=["equi", "equi_residual"],
    )
    def test_semi_join_keeps_each_left_row_once(self, predicate):
        plan = SemiJoin(Scan(self.L, "l"), Scan(self.R, "r"), predicate)
        assert evaluate(plan).rows == [(1, "a"), (1, "a")]

    def test_set_operations(self):
        left, right = Scan(self.L, "l"), Scan(Relation(["k", "v"], [(2, "c")]), "x")
        assert evaluate(Difference(left, right)).rows == [(1, "a"), (None, "b")]
        assert evaluate(Union(left, right)).rows == [*self.L.rows, (2, "c")]
        assert evaluate(Distinct(left)).rows == [(1, "a"), (None, "b"), (2, "c")]

    def test_projections_and_rename(self):
        scan = Scan(self.L, "l")
        assert evaluate(Project(scan, ["l.v"])).rows == [("a",), ("b",), ("c",), ("a",)]
        both = evaluate(ProjectAs(scan, [("l.k", "x"), ("l.k", "y")]))
        assert both.schema.names == ["x", "y"] and both.rows[2] == (2, 2)
        extended = evaluate(Extend(Select(scan, col("l.k").is_null()), [("z", lit(7))]))
        assert extended.rows == [(None, "b", 7)]
        renamed = evaluate(Rename(scan, {"l.v": "w"}))
        assert renamed.schema.names == ["l.k", "w"] and renamed.rows == self.L.rows
