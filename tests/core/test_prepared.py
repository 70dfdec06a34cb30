"""Tests for prepare()/PreparedQuery and $n parameter slots."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PreparedQuery, Poss, Rel, UProject, USelect, execute_query
from repro.core.prepared import collect_params, text_statement
from repro.relational import (
    Param,
    col,
    compile_cache_stats,
    lit,
    plan_cache_stats,
)
from repro.sql import SqlSyntaxError, execute_sql, parse, prepare

from tests.conftest import build_vehicles_udb


class TestParamExpression:
    def test_parse_builds_shared_store(self):
        query = parse("possible (select id from r where type = $1 and id < $2)")
        store, count = collect_params(query)
        assert count == 2
        store[:] = ["Tank", 3]
        assert store == ["Tank", 3]

    def test_dollar_zero_rejected(self):
        for slot in ("$0", "$00", "$000"):
            with pytest.raises(SqlSyntaxError):
                parse(f"possible (select id from r where type = {slot})")

    def test_statement_cache_is_bounded(self, vehicles_udb):
        from repro.sql import _STATEMENT_CACHE_LIMIT

        for i in range(_STATEMENT_CACHE_LIMIT + 5):
            execute_sql(f"possible (select id from r where id = {i})", vehicles_udb)
        assert len(vehicles_udb._statements) <= _STATEMENT_CACHE_LIMIT

    def test_param_repr_and_value(self):
        store = []
        p = Param(1, store)
        assert repr(p) == "$2"
        assert store == [None, None]  # padded to the slot
        store[1] = 7
        assert p.value == 7

    def test_mixed_stores_rejected(self):
        q1 = parse("possible (select id from r where type = $1)")
        q2 = parse("possible (select id from r where type = $1)")
        mixed = USelect(q1.child, col("id").eq(Param(0, [None])))
        with pytest.raises(ValueError):
            collect_params(Poss(mixed))


class TestPreparedQuery:
    def test_run_binds_and_answers(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        tanks = stmt.run("Tank")
        transports = stmt.run("Transport")
        # match the unparameterized statements
        assert tanks == execute_sql(
            "possible (select id from r where type = 'Tank')", vehicles_udb
        )
        assert transports == execute_sql(
            "possible (select id from r where type = 'Transport')", vehicles_udb
        )

    def test_one_plan_serves_every_binding(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        stmt.run("Tank")
        misses = plan_cache_stats()["misses"]
        codegen = compile_cache_stats()["misses"]
        for value in ("Transport", "Tank", "NoSuchType", None):
            stmt.run(value)
        assert plan_cache_stats()["misses"] == misses  # zero re-planning
        assert compile_cache_stats()["misses"] == codegen  # zero codegen

    def test_null_binding_matches_nothing(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        stmt.run("Tank")
        assert len(stmt.run(None)) == 0  # NULL never compares equal

    def test_wrong_arity_raises(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        with pytest.raises(ValueError):
            stmt.run()
        with pytest.raises(ValueError):
            stmt.run("Tank", "Extra")

    def test_prepare_is_idempotent(self, vehicles_udb):
        sql = "possible (select id from r where type = $1)"
        assert prepare(sql, vehicles_udb) is prepare(sql, vehicles_udb)

    def test_prepare_rejects_ddl(self, vehicles_udb):
        with pytest.raises(ValueError):
            prepare("create index i on u_r_type (type)", vehicles_udb)

    def test_explain_marks_cached_after_first_run(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        cold = stmt.explain()
        assert "(cached)" not in cold.splitlines()[0] or cold  # first may be cold
        stmt.run("Tank")
        warm = stmt.explain()
        assert warm.splitlines()[0].endswith("(cached)")
        assert "$1" in warm  # the parameter slot shows in the plan

    def test_udatabase_prepare_convenience(self, vehicles_udb):
        stmt = vehicles_udb.prepare("possible (select id from r where type = $1)")
        assert isinstance(stmt, PreparedQuery)
        assert len(stmt.run("Tank")) > 0

    def test_parameter_free_statement_prepares(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = 'Tank')", vehicles_udb)
        assert stmt.parameter_count == 0
        first = stmt.run()
        misses = plan_cache_stats()["misses"]
        assert stmt.run() == first
        assert plan_cache_stats()["misses"] == misses

    def test_execute_sql_params_share_statement_cache(self, vehicles_udb):
        sql = "possible (select id from r where id < $1)"
        a = execute_sql(sql, vehicles_udb, params=(3,))
        misses = plan_cache_stats()["misses"]
        b = execute_sql(sql, vehicles_udb, params=(5,))
        assert plan_cache_stats()["misses"] == misses  # plan reused
        assert len(b) >= len(a)

    def test_execute_sql_missing_params_raises(self, vehicles_udb):
        with pytest.raises(ValueError):
            execute_sql(
                "possible (select id from r where id < $1)", vehicles_udb
            )

    def test_between_parameters(self, vehicles_udb):
        stmt = prepare(
            "possible (select id from r where id between $1 and $2)", vehicles_udb
        )
        both = stmt.run(1, 4)
        narrow = stmt.run(2, 3)
        assert set(narrow.rows) <= set(both.rows)
        reference = execute_sql(
            "possible (select id from r where id between 2 and 3)", vehicles_udb
        )
        assert narrow == reference

    def test_repeated_slot_reads_one_binding(self, vehicles_udb):
        stmt = prepare(
            "possible (select id from r where id = $1 or id < $1)", vehicles_udb
        )
        got = stmt.run(3)
        reference = execute_sql(
            "possible (select id from r where id = 3 or id < 3)", vehicles_udb
        )
        assert got == reference


def test_explain_and_run_never_see_each_others_bindings():
    """One statement shared by two threads: ``run`` of one key in a loop
    beside ``explain(analyze=True)`` of another.  Both bind under the
    statement's lock, so each executes with its own key."""
    import sys
    import threading

    udb = build_vehicles_udb()
    stmt = PreparedQuery(parse("possible (select id from r where type = $1)"), udb)
    tanks = sorted(stmt.run("Tank").rows)
    assert len(tanks) == 4
    stmt.run("Jeep")  # no vehicle is a Jeep: explain must report 0 actual rows
    wrong, stop = [], threading.Event()

    def runner():
        while not stop.is_set():
            got = sorted(stmt.run("Tank").rows)
            if got != tanks:
                wrong.append(("run", got))

    def explainer():
        for _ in range(300):
            top = stmt.explain("Jeep", analyze=True).splitlines()[0]
            if "actual rows=0 " not in top:
                wrong.append(("explain", top))
        stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=runner), threading.Thread(target=explainer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong[:3]


class TestParamPointLookup:
    """Parameterized equality predicates become index point lookups that
    resolve the bound value per execution."""

    def test_param_point_lookup_uses_index_and_rebinds(self, vehicles_udb):
        # udb partitions auto-index their value columns (sorted)
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        stmt.run("Tank")
        text = stmt.explain()
        assert "Index Scan" in text and "$1" in text
        # same cached plan, different binding, correct answer
        transports = stmt.run("Transport")
        reference = execute_sql(
            "possible (select id from r where type = 'Transport')", vehicles_udb
        )
        assert transports == reference


@given(
    st.lists(
        st.sampled_from(["Tank", "Transport", "NoSuchType", None]),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(["rows", "columns"]),
)
@settings(max_examples=40, deadline=None)
def test_prepared_matches_literal_queries(bindings, mode):
    """Property: for any binding sequence and executor mode, the prepared
    query answers exactly what the literal query answers."""
    udb = build_vehicles_udb()
    stmt = prepare("possible (select id from r where type = $1)", udb)
    for value in bindings:
        got = stmt.run(value, mode=mode)
        if value is None:
            assert len(got) == 0
            continue
        literal = Poss(UProject(USelect(Rel("r"), col("type").eq(lit(value))), ["id"]))
        assert got == execute_query(literal, udb, mode=mode)


REBOUND_INNER_SIDES = [
    (
        "possible (select a.id, b.id from r a, r b where a.id < b.id and b.id = {})",
        (2, 3, 2),
    ),
    (
        "possible (select a.id, b.type from r a, r b where a.id < b.id and b.type = {})",
        ("Tank", "Transport", "Tank"),
    ),
]


@pytest.mark.parametrize("mode", ["rows", "columns"])
@pytest.mark.parametrize("template, keys", REBOUND_INNER_SIDES)
def test_nested_loop_inner_side_follows_each_binding(template, keys, mode):
    """A nested loop drains its inner side once per *execution*: the cached
    (and, for inlined keys, shape-shared) plan must never answer a binding
    with the inner rows an earlier binding produced."""
    udb = build_vehicles_udb()
    statement = prepare(template.format("$1"), udb)
    for key in keys:
        inlined = template.format(repr(key))
        fresh = PreparedQuery(parse(inlined), build_vehicles_udb()).run(mode=mode)
        assert len(fresh) > 0
        assert statement.run(key, mode=mode) == fresh
        shared, lifted = text_statement(inlined, udb, udb._statements, True, 256)
        assert lifted == (key,)
        assert shared.run(*lifted, mode=mode) == fresh
        if mode == "columns":
            assert execute_sql(inlined, udb) == fresh
