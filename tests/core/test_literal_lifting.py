"""An ad-hoc query is planned once per shape, not once per text.

The by-text statement path (``Session.execute``, ``execute_sql``) lifts
the non-NULL literals of ``column = literal`` comparisons into ``$n``
slots and keeps one statement per *shape* on the database
(:func:`repro.core.prepared.text_statement`).  Checked here:

* (a) answers: a hypothesis property over random texts against the
  unlifted ``PreparedQuery(parse(text), udb)``;
* (b) work, counted and never timed: distinct keys of one shape reach
  ``translate`` / ``optimize`` / ``plan_physical`` once;
* (c) sharing: the shape's plan serves every session, and concurrent
  sessions or threads neither wait for one another nor see one another's
  keys;
* (d) the trace and the slow-query log name the request's own text, and
  the by-shape maps stay bounded.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PreparedQuery
from repro.core.prepared import _STATEMENT_CACHE_LIMIT, lift_literals, text_statement
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.obs import slow_queries
from repro.relational import plan_cache_stats
from repro.server import QueryServer
from repro.sql import execute_sql, parse, prepare
from tests.conftest import build_vehicles_udb

LOOKUP = "possible (select kind, score from events where id = {key})"


def _events(count: int) -> UDatabase:
    """``events(id, kind, score)``, one partition per attribute, indexed."""
    udb = UDatabase()
    tid = tid_column("events")
    attributes = ["id", "kind", "score"]
    udb.add_relation(
        "events", attributes, [URelation.build([], tid, [a]) for a in attributes]
    )
    udb.copy_rows("events", [(i, f"k{i % 5}", i % 100) for i in range(count)])
    udb.compact()
    udb.build_indexes()
    return udb


def _event_rows(key: int):
    return {(f"k{key % 5}", key % 100)}


def _rows(result) -> Counter:
    """The answer as a bag (confidences rounded: same plan, same sums)."""
    relation = getattr(result, "relation", result)
    return Counter(
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in relation.rows
    )


# ----------------------------------------------------------------------
# (a) lifted answers == unlifted answers
# ----------------------------------------------------------------------
def _two_relation_udb(indexed: bool) -> UDatabase:
    """The paper's vehicles ``r(id, type, faction)`` plus ``s(id, owner, tons)``."""
    udb = build_vehicles_udb()
    attributes = ["id", "owner", "tons"]
    udb.add_relation(
        "s",
        attributes,
        [URelation.build([], tid_column("s"), [a]) for a in attributes],
    )
    udb.copy_rows(
        "s", [(i % 5, ("Ann", "Bob", "7")[i % 3], float(i % 4)) for i in range(12)]
    )
    if indexed:
        udb.build_indexes()
    return udb


_UDBS = {False: _two_relation_udb(False), True: _two_relation_udb(True)}

# column -> literals of its own type (ranges and IN stay type-consistent;
# equality also draws from every other type: 3 vs '3' against one column)
_COLUMNS = {
    "r": {"id": [0, 1, 2, 3, 4], "type": ["Tank", "Transport", "Jeep"],
          "faction": ["Friend", "Enemy"]},
    "s": {"id": [0, 1, 2, 3, 4, 7], "owner": ["Ann", "Bob", "7"],
          "tons": [0.0, 1.0, 2.5, 3.0]},
}
_ANY_LITERAL = [1, 3, 7, 2.0, 2.5, "Tank", "Ann", "7", "3", None]


def _sql_literal(value) -> str:
    if value is None:
        return "null"
    return f"'{value}'" if isinstance(value, str) else repr(value)


@st.composite
def _conjunct(draw, alias: str, relation: str, params: list):
    column = draw(st.sampled_from(sorted(_COLUMNS[relation])))
    own = _COLUMNS[relation][column]
    ref = f"{alias}.{column}"
    kind = draw(
        st.sampled_from(["eq", "eq", "eq_left", "eq_any", "eq_param", "range",
                         "between", "in", "ne", "not_eq", "or_eq"])
    )
    lit = lambda pool: _sql_literal(draw(st.sampled_from(pool)))  # noqa: E731
    if kind == "eq":
        return f"{ref} = {lit(own)}"
    if kind == "eq_left":
        return f"{lit(own)} = {ref}"
    if kind == "eq_any":
        return f"{ref} = {lit(_ANY_LITERAL)}"
    if kind == "eq_param":
        params.append(draw(st.sampled_from(own)))
        return f"{ref} = ${len(params)}"
    if kind == "range":
        return f"{ref} {draw(st.sampled_from(['<', '<=', '>', '>=']))} {lit(own)}"
    if kind == "between":
        return f"{ref} between {lit(own)} and {lit(own)}"
    if kind == "in":
        return f"{ref} in ({lit(own)}, {lit(own)})"
    if kind == "ne":
        return f"{ref} <> {lit(own)}"
    if kind == "not_eq":
        return f"not ({ref} = {lit(own)})"
    return f"({ref} = {lit(own)} or {ref} = {lit(own)})"


@st.composite
def _query_text(draw):
    """``(text, params)``: one or two relations, a wrapper, 1-4 conjuncts."""
    params: list = []
    two = draw(st.booleans())
    sources = [("a", "r"), ("b", "s")] if two else [draw(st.sampled_from([("a", "r"), ("b", "s")]))]
    conjuncts = ["a.id = b.id"] if two else []
    for _ in range(draw(st.integers(1, 4))):
        alias, relation = draw(st.sampled_from(sources))
        conjuncts.append(draw(_conjunct(alias, relation, params)))
    if draw(st.booleans()) and len(conjuncts) > 1:
        conjuncts.append(conjuncts[-1])  # the same literal twice
    columns = ", ".join(
        f"{alias}.{draw(st.sampled_from(sorted(_COLUMNS[relation])))}"
        for alias, relation in sources
    )
    tables = ", ".join(f"{relation} {alias}" for alias, relation in sources)
    select = f"select {columns} from {tables} where {' and '.join(conjuncts)}"
    wrapper = draw(st.sampled_from(["possible ({})", "certain ({})", "conf ({})", "{}"]))
    return wrapper.format(select), tuple(params)


@settings(max_examples=150, deadline=None)
@given(case=_query_text(), indexed=st.booleans())
def test_lifted_answers_equal_unlifted_answers(case, indexed):
    text, params = case
    udb = _UDBS[indexed]
    reference = _rows(PreparedQuery(parse(text), udb).run(*params))
    session = udb.session()
    for _ in range(2):  # the statement's first run, then a hit by text
        assert _rows(session.execute(text, params)) == reference, text
    assert _rows(execute_sql(text, udb, params=params)) == reference, text


def test_equality_with_null_stays_empty_and_unlifted():
    udb = _UDBS[True]
    text = "possible (select a.id from r a where a.type = null)"
    assert _rows(udb.session().execute(text)) == Counter()
    assert _rows(execute_sql(text, udb)) == Counter()
    _key, sites = lift_literals(parse(text))
    assert sites == []


def test_which_literals_are_lifted():
    def lifted(where):
        _key, sites = lift_literals(parse(f"possible (select id from r where {where})"))
        return [value for _cmp, _side, value in sites]

    assert lifted("id = 3 and 'Tank' = type and faction = $1") == [3, "Tank"]
    assert lifted("not (id = 3) or type = 'Jeep'") == [3, "Jeep"]
    assert lifted("id < 3 and id between 1 and 2 and type in ('Tank') and id <> 4") == []
    assert lifted("id = null and 1 = 1") == []

    def shape(where):
        return lift_literals(parse(f"possible (select id from r where {where})"))[0]

    assert shape("id = 3") == shape("id = 4")
    assert shape("id = 3") != shape("id = '3'")  # one shape per literal type
    assert shape("id = 3 and id < 5") != shape("id = 3 and id < 6")
    assert shape("id = $1") != shape("id = $2")


def test_wrong_parameter_count_names_the_texts_own_slots():
    session = _UDBS[False].session()
    with pytest.raises(ValueError, match=r"takes 1 parameter\(s\), got 0"):
        session.execute("possible (select a.id from r a where a.type = 'Tank' and a.id = $1)")


# ----------------------------------------------------------------------
# (b) work count
# ----------------------------------------------------------------------
@pytest.fixture
def planned(monkeypatch):
    """Count calls into the three planning layers."""
    calls = {"translate": 0, "optimize": 0, "plan_physical": 0}

    def counting(module, name):
        module = importlib.import_module(module)  # repro.core.translate is shadowed
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting("repro.core.translate", "translate")
    counting("repro.relational.optimizer", "optimize")
    counting("repro.relational.planner", "plan_physical")
    return calls


@pytest.mark.parametrize(
    "text, keys, answered",
    [
        (LOOKUP, 300, lambda result, key: set(result.rows) == _event_rows(key)),
        # the matching query of a write: one plan across the writes, which
        # stay under the analyze threshold (past it the plan re-plans)
        ("update events set score = 7 where id = {key}", 40, lambda result, key: result.count == 1),
        ("delete from events where id = {key}", 40, lambda result, key: result.count == 1),
    ],
    ids=["query", "update", "delete"],
)
def test_distinct_keys_of_one_shape_plan_once(planned, text, keys, answered):
    udb = _events(400)
    session = udb.session()
    for key in range(keys):
        assert answered(session.execute(text.format(key=key)), key)
    assert planned == {"translate": 1, "optimize": 1, "plan_physical": 1}
    stats = plan_cache_stats()
    assert (stats["misses"], stats["evictions"]) == (1, 0)
    assert stats["hits"] == keys - 1
    assert len(udb._statement_shapes) == (text == LOOKUP)


def test_range_literals_still_plan_per_literal(planned):
    udb = _events(400)
    session = udb.session()
    for bound in range(1, 6):
        got = session.execute(f"possible (select id from events where id < {bound})")
        assert sorted(got.rows) == [(i,) for i in range(bound)]
    assert planned == {"translate": 5, "optimize": 5, "plan_physical": 5}
    assert (len(udb._statements), len(udb._statement_shapes)) == (5, 0)


# ----------------------------------------------------------------------
# (c) one plan per shape for every session; no waiting, no mixed keys
# ----------------------------------------------------------------------
def test_a_session_per_request_shares_the_shapes_plan():
    """Connection-per-request clients: 300 sessions sending one text, then
    300 sending a different key each, plan the shape once between them."""
    udb = _events(400)
    for _ in range(300):
        assert set(udb.session().execute(LOOKUP.format(key=7)).rows) == _event_rows(7)
    stats = plan_cache_stats()
    assert (stats["misses"], stats["hits"], stats["evictions"]) == (1, 299, 0)
    for key in range(300):
        assert set(udb.session().execute(LOOKUP.format(key=key)).rows) == _event_rows(key)
    assert set(execute_sql(LOOKUP.format(key=9), udb).rows) == _event_rows(9)
    stats = plan_cache_stats()
    assert (stats["misses"], stats["hits"], stats["evictions"]) == (1, 600, 0)
    # one statement whatever the key, the key as its value: identical texts
    # in flight coalesce
    one, other = (text_statement(LOOKUP.format(key=key), udb, True) for key in (7, 8))
    assert one[0] is other[0] and (one[1], other[1]) == ((7,), (8,))


def test_prepare_keeps_literals_whatever_ran_before():
    udb = _events(50)
    execute_sql(LOOKUP.format(key=3), udb)
    assert prepare(LOOKUP.format(key=3), udb).parameter_count == 0
    assert prepare(LOOKUP.format(key=3), udb) is prepare(LOOKUP.format(key=3), udb)
    misses = plan_cache_stats()["misses"]
    assert set(execute_sql(LOOKUP.format(key=3), udb).rows) == _event_rows(3)
    assert set(execute_sql(LOOKUP.format(key=4), udb).rows) == _event_rows(4)
    assert plan_cache_stats()["misses"] == misses  # still the lifted statement


def test_concurrent_execute_sql_threads_each_see_their_own_keys():
    """More threads than cores on one per-database statement, switching
    every 10 us: no answer carries another thread's key, and the shape's
    one plan (built by the first text: threads that miss on one key
    together would each plan) serves them all, whatever the overlap."""
    udb = _events(1000)
    execute_sql(LOOKUP.format(key=0), udb)
    wrong, errors = [], []

    def client(offset):
        try:
            for i in range(150):
                key = (offset * 101 + i * 7) % 1000
                got = set(execute_sql(LOOKUP.format(key=key), udb).rows)
                if got != _event_rows(key):
                    wrong.append((key, got))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=client, args=(n,)) for n in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong
    assert len(udb._statement_shapes) == 1
    assert plan_cache_stats()["misses"] == 1


def test_concurrent_sessions_each_see_their_own_keys():
    udb = _events(1000)
    wrong, errors = [], []
    with QueryServer(udb, workers=4) as server:

        def client(offset):
            try:
                session = server.session()
                for i in range(200):
                    key = (offset * 211 + i * 7) % 1000
                    got = set(session.execute(LOOKUP.format(key=key)).rows)
                    if got != _event_rows(key):
                        wrong.append((key, got))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong


# ----------------------------------------------------------------------
# (d) observability and bounds
# ----------------------------------------------------------------------
def test_trace_and_slow_log_carry_the_requests_own_text():
    udb = _events(50)
    session = udb.session()
    texts = [LOOKUP.format(key=key) for key in (3, 4, 5)]
    for text in texts + texts[:1]:
        session.execute(text)
    entries = slow_queries()
    assert Counter(e["attrs"]["sql"] for e in entries) == Counter(texts + texts[:1])
    parse_attrs = {}
    for entry in entries:
        (span,) = [c for c in entry["children"] if c["name"] == "parse"]
        parse_attrs.setdefault(entry["attrs"]["sql"], []).append(span["attrs"])
    flags = lambda a: (a["cached"], a["shape_cached"], a["lifted"])  # noqa: E731
    assert sorted(map(flags, parse_attrs[texts[0]])) == [(False, False, 1), (True, True, 1)]
    assert list(map(flags, parse_attrs[texts[1]])) == [(False, True, 1)]


def test_statement_maps_are_bounded():
    udb = _events(50)
    session = udb.session()
    for run in (session.execute, lambda text: execute_sql(text, udb)):
        for bound in range(_STATEMENT_CACHE_LIMIT + 10):  # a range literal: one shape each
            run(f"possible (select kind from events where id = 1 and score < {bound})")
        assert len(udb._statement_shapes) <= _STATEMENT_CACHE_LIMIT
        assert len(udb._statements) <= _STATEMENT_CACHE_LIMIT


# ----------------------------------------------------------------------
# (e) the lifted plan is the plan the literal would have got
# ----------------------------------------------------------------------
ORDERS_LOOKUP = (
    "possible (select o.orderdate, o.totalprice, o.orderstatus "
    "from orders o where o.orderkey = {key})"
)
TWO_PREDICATE_JOIN = (
    "possible (select o.orderkey from customer c, orders o "
    "where c.custkey = o.custkey and c.mktsegment = {segment} and o.orderstatus = {status})"
)
Q3 = (
    "possible (select n1.name, n2.name from supplier s, lineitem l, orders o, "
    "customer c, nation n1, nation n2 where n2.name = 'IRAQ' and n1.name = 'GERMANY' "
    "and c.nationkey = n2.nationkey and s.suppkey = l.suppkey "
    "and o.orderkey = l.orderkey and c.custkey = o.custkey and s.nationkey = n1.nationkey)"
)


@pytest.fixture(scope="module")
def tpch():
    from repro.ugen import generate_uncertain

    udb = generate_uncertain(scale=0.001, x=0.1, z=0.25, seed=1).udb
    udb.build_indexes()
    return udb


def _planned_class(query, udb) -> str:
    from repro.core.translate import query_cache_key
    from repro.relational.plancache import cached_cost_class

    return cached_cost_class(query_cache_key(query, udb))


@pytest.mark.parametrize(
    "template, constants",
    [
        (ORDERS_LOOKUP, {"key": "7"}),
        (TWO_PREDICATE_JOIN, {"segment": "'BUILDING'", "status": "'F'"}),
    ],
)
def test_param_form_explains_like_the_literal_form(tpch, template, constants):
    slots = {name: f"${i + 1}" for i, name in enumerate(constants)}
    literal = PreparedQuery(parse(template.format(**constants)), tpch).explain()
    param = PreparedQuery(parse(template.format(**slots)), tpch).explain()
    for name, constant in constants.items():
        assert f"= {constant})" in literal
        literal = literal.replace(f"= {constant})", f"= {slots[name]})")
    assert literal.splitlines() == param.splitlines()


def test_partition_merged_point_lookup_admits_as_point(tpch):
    literal = PreparedQuery(parse(ORDERS_LOOKUP.format(key=7)), tpch)
    param = PreparedQuery(parse(ORDERS_LOOKUP.format(key="$1")), tpch)
    literal.run()
    param.run(7)
    session = tpch.session()
    session.execute(ORDERS_LOOKUP.format(key=7))
    lifted, values = text_statement(ORDERS_LOOKUP.format(key=8), tpch, True)
    assert values == (8,) and lifted.parameter_count == 1
    for statement in (literal, param, lifted):
        assert "Index Nested Loop Join" in statement.explain(*([7] * statement.parameter_count))
        assert _planned_class(statement.query, tpch) == "point"
    q3 = PreparedQuery(parse(Q3), tpch)
    q3.explain()
    assert _planned_class(q3.query, tpch) == "heavy"
