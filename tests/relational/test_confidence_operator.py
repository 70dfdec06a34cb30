"""The ``Confidence`` physical operator vs the tuple-at-a-time reference.

The kernel groups the translated U-relation columnar-batch-at-a-time and
computes per-group confidence through the shared memoized engine; the
reference path materializes a :class:`URelation` and calls
``confidence_relation``.  For every random database, query shape, and
execution mode the two must agree bit-for-bit on group keys and within
float tolerance on probabilities.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Conf,
    Descriptor,
    Poss,
    Rel,
    UDatabase,
    UProject,
    URelation,
    USelect,
    UUnion,
    WorldTable,
    execute_query,
)
from repro.core.probability import ConfidenceAnswer, confidence_relation
from repro.core.translate import _cached_physical, explain_query, query_cache_key
from repro.core.urelation import tid_column
from repro.relational import col, execute, lit
from repro.relational.plancache import cached_cost_class

# -- strategies (probabilistic twin of test_property_core's) -------------
variables = ["x", "y", "z"]
small_values = st.integers(min_value=0, max_value=2)


@st.composite
def field_triples(draw, tid: int):
    kind = draw(st.sampled_from(["certain", "one_var", "two_var"]))
    if kind == "certain":
        return [(Descriptor(), tid, (draw(small_values),))]
    if kind == "one_var":
        var = draw(st.sampled_from(variables))
        return [
            (Descriptor({var: value}), tid, (draw(small_values),))
            for value in (1, 2)
        ]
    v1, v2 = draw(
        st.lists(st.sampled_from(variables), min_size=2, max_size=2, unique=True)
    )
    return [
        (Descriptor({v1: a, v2: b}), tid, (draw(small_values),))
        for a in (1, 2)
        for b in (1, 2)
    ]


@st.composite
def prob_udatabases(draw):
    """Random two-attribute relation over a *weighted* 3-variable world."""
    probabilities = {}
    for var in variables:
        w = draw(st.integers(min_value=1, max_value=4))
        probabilities[var] = [w / (w + 1), 1 / (w + 1)]
    world = WorldTable({v: [1, 2] for v in variables}, probabilities=probabilities)
    n_tuples = draw(st.integers(min_value=1, max_value=4))
    a_triples, b_triples = [], []
    for tid in range(1, n_tuples + 1):
        a_triples.extend(draw(field_triples(tid)))
        b_triples.extend(draw(field_triples(tid)))
    u_a = URelation.build(a_triples, tid_column("r"), ["a"])
    u_b = URelation.build(b_triples, tid_column("r"), ["b"])
    udb = UDatabase(world)
    udb.add_relation("r", ["a", "b"], [u_a, u_b])
    return udb


@st.composite
def queries(draw):
    shape = draw(st.sampled_from(["rel", "select", "project", "union"]))
    if shape == "rel":
        return Rel("r")
    if shape == "select":
        column = draw(st.sampled_from(["a", "b"]))
        return USelect(Rel("r"), col(column).eq(lit(draw(small_values))))
    if shape == "project":
        column = draw(st.sampled_from(["a", "b"]))
        return UProject(Rel("r"), [column])
    left = UProject(USelect(Rel("r"), col("a").eq(lit(draw(small_values)))), ["a"])
    right = UProject(USelect(Rel("r"), col("b").eq(lit(draw(small_values)))), ["b"])
    return UUnion(left, right)


def assert_rows_match(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got[:-1] == want[:-1]
        assert got[-1] == pytest.approx(want[-1])


# -- the central equivalence --------------------------------------------
@given(prob_udatabases(), queries(), st.sampled_from(["rows", "columns"]))
@settings(max_examples=60, deadline=None)
def test_operator_matches_tuple_at_a_time(udb, query, mode):
    answer = execute_query(Conf(query, method="exact"), udb, mode=mode)
    reference = confidence_relation(
        execute_query(query, udb), udb.world_table, method="exact"
    )
    assert isinstance(answer, ConfidenceAnswer)
    assert answer.schema.names == reference.schema.names
    assert_rows_match(list(answer.rows), list(reference.rows))


@given(prob_udatabases(), queries())
@settings(max_examples=20, deadline=None)
def test_operator_auto_matches_exact_on_small_worlds(udb, query):
    auto = execute_query(Conf(query, method="auto"), udb)
    exact = execute_query(Conf(query, method="exact"), udb)
    assert_rows_match(list(auto.rows), list(exact.rows))


@given(prob_udatabases(), queries())
@settings(max_examples=15, deadline=None)
def test_small_batches_do_not_change_groups(udb, query):
    conf = Conf(query, method="exact")
    record, _cached = _cached_physical(
        conf, udb, query_cache_key(conf, udb), True, "columns", True
    )
    physical = record.physical
    whole = execute(physical)
    chopped = execute(physical, batch_size=1)
    assert_rows_match(list(chopped.rows), list(whole.rows))


# -- fixtures for the plumbing checks -----------------------------------
@pytest.fixture()
def vehicles_udb():
    from tests.conftest import build_vehicles_udb

    return build_vehicles_udb()


def test_answer_carries_computation_summary(vehicles_udb):
    answer = execute_query(Conf(Rel("r"), method="exact"), vehicles_udb)
    assert answer.schema.names[-1] == "conf"
    summary = answer.conf
    assert summary["method"] == "exact"
    assert summary["groups"] == len(answer.rows)
    assert summary["exact_groups"] == summary["groups"]
    assert summary["approx_groups"] == 0
    assert summary["seconds"] >= 0.0
    # descending by confidence
    confs = [row[-1] for row in answer.rows]
    assert confs == sorted(confs, reverse=True)


def test_conf_rejects_certain_child_and_bad_method(vehicles_udb):
    from repro.core import Certain

    with pytest.raises(ValueError):
        Conf(Certain(Rel("r")))
    with pytest.raises(ValueError):
        Conf(Rel("r"), method="sometimes")
    # Poss is unwrapped: conf of possible tuples == conf of the query
    via_poss = execute_query(Conf(Poss(Rel("r"))), vehicles_udb)
    direct = execute_query(Conf(Rel("r")), vehicles_udb)
    assert list(via_poss.rows) == list(direct.rows)


def test_explain_shows_confidence_node_and_cache_marker(vehicles_udb):
    query = Conf(UProject(Rel("r"), ["type"]), method="auto", epsilon=0.02)
    cold = explain_query(query, vehicles_udb)
    assert "Confidence" in cold
    assert "Group Key: type" in cold
    assert "Method: auto" in cold
    assert "Error Budget: epsilon=0.02" in cold
    assert "(cached)" not in cold
    warm = explain_query(query, vehicles_udb)
    assert "(cached)" in warm


def test_conf_queries_classify_into_their_own_cost_class(vehicles_udb):
    query = Conf(USelect(Rel("r"), col("type").eq(lit("Tank"))))
    execute_query(query, vehicles_udb)
    key = query_cache_key(query, vehicles_udb)
    assert key is not None
    assert cached_cost_class(key) == "conf"
    # the inner query alone is not a conf plan
    inner_key = query_cache_key(
        USelect(Rel("r"), col("type").eq(lit("Tank"))), vehicles_udb
    )
    assert cached_cost_class(inner_key) != "conf"


def test_trace_reports_confidence_operator_actuals(vehicles_udb):
    query = Conf(Rel("r"), method="exact")
    text, data = explain_query(query, vehicles_udb, analyze=True, trace=True)
    assert "Confidence" in text

    def find(node):
        if node["operator"] == "Confidence":
            return node
        for child in node.get("children", ()):
            hit = find(child)
            if hit is not None:
                return hit
        return None

    node = find(data["operators"])
    assert node is not None
    assert node["actual_rows"] == len(execute_query(query, vehicles_udb).rows)
