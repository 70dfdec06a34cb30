"""Property tests: cached execute_query == fresh execution == reference.

For randomized logical queries over the vehicles database, executing
through the (warm) prepared-plan cache must be tuple-identical to the
execution that planned afresh, and both to the ``rows()`` reference
(:func:`~repro.core.translate.reference_query`).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Poss, Rel, UJoin, UProject, UQuery, USelect
from repro.core.translate import execute_query, reference_query
from repro.relational import col, lit, plan_cache_stats, reset_plan_cache

from tests.conftest import build_vehicles_udb

@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(["type", "faction", "id_lt", "id_between", "and"]))
    if kind == "type":
        return col("type").eq(lit(draw(st.sampled_from(["Tank", "Transport", "None"]))))
    if kind == "faction":
        return col("faction").eq(lit(draw(st.sampled_from(["Friend", "Enemy"]))))
    if kind == "id_lt":
        return col("id") < lit(draw(st.integers(min_value=0, max_value=5)))
    if kind == "id_between":
        lo = draw(st.integers(min_value=0, max_value=4))
        hi = draw(st.integers(min_value=0, max_value=5))
        return col("id").between(min(lo, hi), max(lo, hi))
    return (col("type").eq(lit("Tank"))) & (
        col("id") < lit(draw(st.integers(min_value=1, max_value=5)))
    )


@st.composite
def queries(draw) -> UQuery:
    shape = draw(st.sampled_from(["select", "project", "join", "merge_heavy"]))
    if shape == "select":
        return Poss(USelect(Rel("r"), draw(predicates())))
    if shape == "project":
        attrs = draw(
            st.sampled_from([["id"], ["type", "id"], ["faction"], ["id", "faction"]])
        )
        return Poss(UProject(USelect(Rel("r"), draw(predicates())), attrs))
    if shape == "join":
        join = UJoin(
            USelect(Rel("r", "a"), col("a.type").eq(lit("Tank"))),
            Rel("r", "b"),
            col("a.id").eq(col("b.id")),
        )
        return Poss(UProject(join, ["a.id", "b.faction"]))
    # touches all three partitions: forces two tid merges
    return Poss(
        UProject(USelect(Rel("r"), draw(predicates())), ["id", "type", "faction"])
    )


@given(queries())
@settings(max_examples=100, deadline=None)
def test_cached_query_identical_to_fresh(query):
    udb = build_vehicles_udb()
    reset_plan_cache()
    cold = execute_query(query, udb)  # plans afresh
    misses = plan_cache_stats()["misses"]
    warm = execute_query(query, udb)
    warm_again = execute_query(query, udb)
    # the repeated runs were executor-only...
    assert plan_cache_stats()["misses"] == misses
    assert plan_cache_stats()["hits"] >= 2
    # ...and tuple-identical to the cold run and to the rows() reference
    assert warm == cold
    assert warm_again == cold
    assert sorted(map(repr, warm.rows)) == sorted(map(repr, cold.rows))
    assert reference_query(query, udb) == cold
