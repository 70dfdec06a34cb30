"""Tests for query-tree helpers and the per-world oracle edge cases."""

import pytest

from repro.core import (
    Descriptor,
    Poss,
    Rel,
    UDatabase,
    UJoin,
    UMerge,
    UProject,
    URelation,
    USelect,
    UUnion,
    WorldTable,
    evaluate_in_world,
)
from repro.core.query import query_relations, referenced_attributes
from repro.core.urelation import tid_column
from repro.relational import Relation, col, lit

from tests.conftest import partition_relation


class TestQueryRelations:
    def test_leaves_in_order(self):
        q = UJoin(Rel("a"), UJoin(Rel("b"), Rel("c"), lit(1).eq(lit(1))), lit(1).eq(lit(1)))
        assert [r.name for r in query_relations(q)] == ["a", "b", "c"]

    def test_single_rel(self):
        (r,) = query_relations(Rel("only"))
        assert r.name == "only"

    def test_through_unary_nodes(self):
        q = Poss(UProject(USelect(Rel("r"), lit(1).eq(lit(1))), []))
        assert [r.name for r in query_relations(q)] == ["r"]


class TestReferencedAttributes:
    def test_collects_predicates_and_projections(self):
        q = UProject(
            USelect(Rel("r"), col("a").eq(col("b"))),
            ["c"],
        )
        assert referenced_attributes(q) == {"a", "b", "c"}

    def test_join_predicates_included(self):
        q = UJoin(Rel("r"), Rel("s"), col("x").eq(col("y")))
        assert referenced_attributes(q) == {"x", "y"}


class TestOracleEdgeCases:
    def instances(self):
        return {
            "r": Relation(["a", "b"], [(1, "x"), (2, "y")]),
            "s": Relation(["c"], [(1,), (3,)]),
        }

    def test_rel_with_alias_qualifies(self):
        out = evaluate_in_world(Rel("r", "t"), self.instances())
        assert out.schema.names == ["t.a", "t.b"]

    def test_poss_rejected_inside(self):
        with pytest.raises(ValueError):
            evaluate_in_world(Poss(Rel("r")), self.instances())

    def test_join_is_filtered_product(self):
        q = UJoin(Rel("r"), Rel("s"), col("a").eq(col("c")))
        out = evaluate_in_world(q, self.instances())
        assert set(out.rows) == {(1, "x", 1)}

    def test_union_positional(self):
        q = UUnion(UProject(Rel("r"), ["a"]), Rel("s"))
        out = evaluate_in_world(q, self.instances())
        assert set(out.rows) == {(1,), (2,), (3,)}

    def test_result_is_set(self):
        instances = {"r": Relation(["a"], [(1,), (1,)])}
        out = evaluate_in_world(Rel("r"), instances)
        assert out.rows == [(1,)]

    def test_merge_of_different_relations_rejected(self):
        q = UMerge(Rel("r"), Rel("s"))
        with pytest.raises(ValueError, match="same relation"):
            evaluate_in_world(q, self.instances())

    def test_merge_with_selections_combines_predicates(self):
        q = UMerge(
            USelect(UProject(Rel("r"), ["a"]), col("a") > lit(0)),
            UProject(Rel("r"), ["b"]),
        )
        out = evaluate_in_world(q, self.instances())
        assert set(out.rows) == {(1, "x"), (2, "y")}


class TestUDatabaseViews:
    def test_partition_relation_runs_queries(self, vehicles_udb):
        from repro.relational import Scan, Select, run

        faction = partition_relation(vehicles_udb, "u_r_faction")
        plan = Select(Scan(faction, name="u_r_faction"), col("faction").eq(lit("Enemy")))
        out = run(plan)
        assert len(out) == 2  # c (certain) and d (z=2)

    def test_world_table_exposed(self, vehicles_udb):
        w = vehicles_udb.world_table.relation()
        assert ("x", 1) in w.rows and ("x", 2) in w.rows

    def test_repr_mentions_partitions(self, vehicles_udb):
        assert "r[3 parts]" in repr(vehicles_udb)
