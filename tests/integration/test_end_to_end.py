"""End-to-end integration tests: generator -> translation -> engine -> oracle.

These tie every subsystem together: uncertain TPC-H data generated by
:mod:`repro.ugen`, queried through the Figure 4 translation executed on the
:mod:`repro.relational` engine, and validated against per-world evaluation
(on small slices) plus representation-level invariants (on larger ones).
"""

import pytest

from repro.core import (
    Poss,
    Rel,
    UJoin,
    UProject,
    USelect,
    evaluate_in_world,
    execute_query,
    reference_query,
)
from repro.core.equivalences import translate_early, translate_late
from repro.relational import col, lit
from repro.relational.planner import run as run_plan
from repro.tpch import ALL_QUERIES, q1, q2, q3
from repro.ugen import generate_uncertain


@pytest.fixture(scope="module")
def small():
    """Tiny slice with few enough worlds to enumerate (nation+region only)."""
    bundle = generate_uncertain(
        scale=0.001, x=0.02, z=0.25, m=3, seed=13, tables=["nation", "region"]
    )
    assert bundle.udb.world_count() <= 100_000
    return bundle


@pytest.fixture(scope="module")
def full():
    return generate_uncertain(scale=0.001, x=0.01, z=0.25, seed=13)


class TestSmallSliceOracle:
    def query(self):
        n = USelect(Rel("nation", "n"), col("n.regionkey") < lit(3))
        r = Rel("region", "g")
        return UProject(
            UJoin(n, r, col("n.regionkey").eq(col("g.regionkey"))),
            ["n.name", "g.name"],
        )

    def test_poss_matches_brute_force(self, small):
        q = self.query()
        translated = set(execute_query(Poss(q), small.udb).rows)
        oracle = set()
        count = 0
        for _val, instances in small.udb.worlds():
            oracle |= set(evaluate_in_world(q, instances).rows)
            count += 1
            if count >= 2000:  # enough worlds for a meaningful check
                break
        assert oracle <= translated

    def test_early_late_strategies_agree(self, small):
        q = self.query()
        late = translate_late(q, small.udb)
        early = translate_early(q, small.udb)
        late_rows = set(
            run_plan(late.plan).project(list(late.value_names)).distinct().rows
        )
        early_rows = set(
            run_plan(early.plan).project(list(early.value_names)).distinct().rows
        )
        assert late_rows == early_rows


class TestPaperQueries:
    def test_q1_q2_q3_run(self, full):
        for label, wrapped, _inner in ALL_QUERIES:
            answer = execute_query(wrapped(), full.udb)
            assert answer.schema is not None

    def test_q2_contains_certain_world_answers(self, full):
        """Every answer of the original one-world database is possible."""
        from repro.relational.types import Date

        li = full.certain["lineitem"]
        sd_i = li.schema.resolve("shipdate")
        d_i = li.schema.resolve("discount")
        q_i = li.schema.resolve("quantity")
        e_i = li.schema.resolve("extendedprice")
        one_world = {
            (row[e_i],)
            for row in li.rows
            if Date("1994-01-01") <= row[sd_i] <= Date("1996-01-01")
            and 0.05 <= row[d_i] <= 0.08
            and row[q_i] < 24
        }
        possible = set(execute_query(q2(), full.udb).rows)
        assert one_world <= possible

    def test_uncertainty_strictly_widens_answers(self):
        certain = generate_uncertain(scale=0.001, x=0.0, seed=17)
        uncertain = generate_uncertain(scale=0.001, x=0.1, seed=17)
        a = len(execute_query(q2(), certain.udb))
        b = len(execute_query(q2(), uncertain.udb))
        assert b > a

    def test_served_plan_and_reference_agree_on_q2(self, full):
        served = execute_query(q2(), full.udb)
        reference = reference_query(q2(), full.udb)
        assert sorted(served.rows) == sorted(reference.rows)


class TestRepresentationInvariants:
    def test_psi_filters_contradictions(self, full):
        """No result descriptor may assign two values to one variable —
        directly checkable without enumerating worlds."""
        q = q1().children[0]
        result = execute_query(q, full.udb)
        for descriptor, _t, _v in result:
            seen = {}
            for var, val in descriptor.items():
                assert seen.setdefault(var, val) == val

    def test_explain_of_translated_query(self, full):
        """EXPLAIN works for translated plans (the Figure 13 pipeline)."""
        from repro.core.translate import translate
        from repro.relational import explain, optimize
        from repro.relational.planner import plan_physical

        translated = translate(q2().children[0], full.udb)
        text = explain(plan_physical(optimize(translated.plan)))
        assert "Seq Scan" in text and "Join" in text
