"""Tests for the Figure 4 translation — checked against the paper's worked
examples (3.6, 3.7) and the brute-force per-world oracle."""

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
    execute_query,
    translate,
)
from repro.core.translate import alpha_condition, psi_condition
from repro.core.urelation import tid_column
from repro.relational import col, lit
from tests.conftest import brute_force_poss, unoptimized_poss


def poss_rows(query, udb):
    return set(execute_query(Poss(query), udb).rows)


class TestPsiAlpha:
    def test_psi_shape(self):
        psi = psi_condition(1, 1, 1)
        text = repr(psi)
        assert "c1" in text and "c2" in text and "w1" in text and "w2" in text
        assert "OR" in text

    def test_psi_pair_count(self):
        from repro.relational.expressions import And

        psi = psi_condition(2, 3, 2)
        assert isinstance(psi, And)
        assert len(psi.operands) == 6  # 2 x 3 disjunctions

    def test_alpha(self):
        alpha = alpha_condition(["tid_r"], "__r")
        assert "tid_r__r" in repr(alpha)


class TestExample36:
    """Example 3.6: ids of enemy tanks on the Figure 1 database."""

    def query(self):
        return UProject(
            USelect(
                Rel("r"),
                col("type").eq(lit("Tank")) & col("faction").eq(lit("Enemy")),
            ),
            ["id"],
        )

    def test_u4_contents(self, vehicles_udb):
        u4 = execute_query(self.query(), vehicles_udb)
        triples = {(d, v) for d, _t, v in u4}
        assert triples == {
            (Descriptor(x=1), (3,)),
            (Descriptor(x=2), (2,)),
            (Descriptor(y=1, z=2), (4,)),
        }

    def test_poss_matches_oracle(self, vehicles_udb):
        q = self.query()
        assert poss_rows(q, vehicles_udb) == brute_force_poss(q, vehicles_udb)

    def test_result_is_valid_urelation(self, vehicles_udb):
        u4 = execute_query(self.query(), vehicles_udb)
        assert u4.value_names == ("id",)
        assert u4.tid_names == ("tid_r",)


class TestExample37:
    """Example 3.7: self-join — pairs of enemy tanks."""

    def query(self):
        def side(alias):
            return UProject(
                USelect(
                    Rel("r", alias),
                    col(f"{alias}.type").eq(lit("Tank"))
                    & col(f"{alias}.faction").eq(lit("Enemy")),
                ),
                [f"{alias}.id"],
            )

        return UJoin(side("s1"), side("s2"), col("s1.id").ne(col("s2.id")))

    def test_u5_psi_filters_inconsistent(self, vehicles_udb):
        """c at two positions at once must be filtered by ψ (the paper's U5)."""
        u5 = execute_query(self.query(), vehicles_udb)
        values = {v for _d, _t, v in u5}
        # (3,2) and (2,3) would need x=1 and x=2 simultaneously
        assert (3, 2) not in values and (2, 3) not in values
        assert values == {(3, 4), (2, 4), (4, 3), (4, 2)}

    def test_poss_matches_oracle(self, vehicles_udb):
        q = self.query()
        assert poss_rows(q, vehicles_udb) == brute_force_poss(q, vehicles_udb)

    def test_self_join_without_alias_rejected(self, vehicles_udb):
        q = UJoin(Rel("r"), Rel("r"), col("id").eq(col("id")))
        with pytest.raises((ValueError, KeyError)):
            execute_query(q, vehicles_udb)


class TestOperators:
    def test_projection_single_partition_no_merge(self, vehicles_udb):
        """On reduced inputs, projecting one attribute reads one partition."""
        translated = translate(UProject(Rel("r"), ["type"]), vehicles_udb)
        assert translated.value_names == ("type",)
        from repro.relational.algebra import Join as AlgebraJoin

        def count_joins(plan):
            n = 1 if isinstance(plan, AlgebraJoin) else 0
            return n + sum(count_joins(c) for c in plan.children)

        assert count_joins(translated.plan) == 0

    def test_selection_then_projection(self, vehicles_udb):
        q = UProject(USelect(Rel("r"), col("faction").eq(lit("Enemy"))), ["id"])
        assert poss_rows(q, vehicles_udb) == brute_force_poss(q, vehicles_udb)

    def test_merge_explicit(self, vehicles_udb):
        q = UMerge(UProject(Rel("r"), ["id"]), UProject(Rel("r"), ["type"]))
        assert poss_rows(q, vehicles_udb) == brute_force_poss(q, vehicles_udb)

    def test_union(self, vehicles_udb):
        left = UProject(USelect(Rel("r"), col("faction").eq(lit("Enemy"))), ["id"])
        right = UProject(USelect(Rel("r"), col("type").eq(lit("Tank"))), ["id"])
        q = UUnion(left, right)
        assert poss_rows(q, vehicles_udb) == brute_force_poss(q, vehicles_udb)

    def test_union_mismatched_widths(self, vehicles_udb):
        """Union branches with different descriptor widths get padded."""
        narrow = UProject(Rel("r"), ["id"])  # width 1 descriptors
        wide = UProject(
            USelect(
                Rel("r"),
                col("type").eq(lit("Tank")) & col("faction").eq(lit("Enemy")),
            ),
            ["id"],
        )  # selection over merged partitions -> width 3
        q = UUnion(wide, narrow)
        assert poss_rows(q, vehicles_udb) == brute_force_poss(q, vehicles_udb)

    def test_join_two_relations(self):
        w = WorldTable({"x": [1, 2]})
        u_r = URelation.build(
            [(Descriptor(x=1), 1, (1,)), (Descriptor(x=2), 1, (2,))],
            tid_column("r"),
            ["k"],
        )
        u_s = URelation.build(
            [(Descriptor(), 1, (1, "one")), (Descriptor(), 2, (2, "two"))],
            tid_column("s"),
            ["k2", "label"],
        )
        udb = UDatabase(w)
        udb.add_relation("r", ["k"], [u_r])
        udb.add_relation("s", ["k2", "label"], [u_s])
        q = UJoin(Rel("r"), Rel("s"), col("k").eq(col("k2")))
        assert poss_rows(q, udb) == brute_force_poss(q, udb)
        assert poss_rows(q, udb) == {(1, 1, "one"), (2, 2, "two")}

    def test_value_name_collision_rejected(self):
        w = WorldTable()
        u_r = URelation.build([(Descriptor(), 1, (1,))], tid_column("r"), ["k"])
        u_s = URelation.build([(Descriptor(), 1, (1,))], tid_column("s"), ["k"])
        udb = UDatabase(w)
        udb.add_relation("r", ["k"], [u_r])
        udb.add_relation("s", ["k"], [u_s])
        q = UJoin(Rel("r"), Rel("s"), col("r.k").eq(col("s.k")))
        with pytest.raises((ValueError, KeyError)):
            execute_query(q, udb)

    def test_aliases_resolve_collision(self):
        w = WorldTable()
        u_r = URelation.build([(Descriptor(), 1, (1,))], tid_column("r"), ["k"])
        u_s = URelation.build([(Descriptor(), 1, (1,))], tid_column("s"), ["k"])
        udb = UDatabase(w)
        udb.add_relation("r", ["k"], [u_r])
        udb.add_relation("s", ["k"], [u_s])
        q = UJoin(Rel("r", "a"), Rel("s", "b"), col("a.k").eq(col("b.k")))
        assert poss_rows(q, udb) == {(1, 1)}

    def test_poss_inside_query_rejected(self, vehicles_udb):
        with pytest.raises(ValueError):
            translate(Poss(Rel("r")), vehicles_udb)


class TestReducedPreservation:
    def test_query_answers_are_reduced(self, vehicles_udb):
        """Prop 3.8: results on reduced inputs are reduced (every tuple
        can be completed — trivially true for tuple-level results whose
        descriptors are internally consistent)."""
        q = USelect(Rel("r"), col("type").eq(lit("Tank")))
        result = execute_query(q, vehicles_udb)
        for descriptor, _t, _v in result:
            # internally consistent descriptors only
            assert descriptor == Descriptor(dict(descriptor.items()))

    def test_optimized_equals_unoptimized(self, vehicles_udb):
        q = UProject(
            USelect(
                Rel("r"),
                col("type").eq(lit("Tank")) & col("faction").eq(lit("Enemy")),
            ),
            ["id"],
        )
        assert poss_rows(q, vehicles_udb) == unoptimized_poss(q, vehicles_udb) == {(2,), (3,), (4,)}
