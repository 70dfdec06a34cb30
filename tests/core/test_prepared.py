"""Tests for prepare()/PreparedQuery and $n parameter slots.

A statement, its plan and its kernels hold no values: each ``run`` is one
execution whose ``$n`` values, operator counters and ``conf`` summary live
in a frame only the executing thread can see.  Beside the behaviour of
``prepare`` / ``run`` / ``explain``, checked here: (a) concurrent
executions of one statement share one plan and never see one another's
values, counters or summaries; (c) a frame dies with its execution, also
when that fails; (d) executing assigns nothing on a plan node but its
plan-only memos; (e) DML and ``certain`` see their values.  ((b), sharing
across sessions, is in ``tests/server/test_session.py``.)
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PreparedQuery, Poss, Rel, UProject, USelect, execute_query, translate
from repro.core.prepared import _STATEMENT_CACHE_LIMIT, text_statement
from repro.core.translate import _cached_physical, explain_query, query_cache_key, reference_query
from repro.core.txn import Transaction
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.obs import start_trace
from repro.relational import (
    Param,
    col,
    compile_cache_stats,
    execute,
    lit,
    optimize,
    physical,
    plan_cache_stats,
    plan_physical,
    reset_plan_cache,
)
from repro.relational.algebra import Distinct, Project
from repro.relational.expressions import executing, frame
from repro.sql import SqlSyntaxError, execute_sql, parse, prepare
from repro.tpch import q1

from tests.conftest import build_vehicles_udb


def _planned(query, udb):
    """``(physical plan, was_cached)`` of a query, through the plan cache."""
    record, was_cached = _cached_physical(query, udb, query_cache_key(query, udb))
    return record.physical, was_cached


class TestParamExpression:
    def test_parse_builds_slots_that_hold_no_value(self, vehicles_udb):
        query = parse("possible (select id from r where type = $1 and id < $2)")
        assert PreparedQuery(query, vehicles_udb).parameter_count == 2
        assert Param.__slots__ == ("index",)

    def test_dollar_zero_rejected(self):
        for slot in ("$0", "$00", "$000"):
            with pytest.raises(SqlSyntaxError):
                parse(f"possible (select id from r where type = {slot})")

    def test_statement_cache_is_bounded(self, vehicles_udb):
        for i in range(_STATEMENT_CACHE_LIMIT + 5):
            execute_sql(f"possible (select id from r where id = {i})", vehicles_udb)
        assert len(vehicles_udb._statements) <= _STATEMENT_CACHE_LIMIT

    def test_param_repr_and_value(self):
        p = Param(1)
        assert repr(p) == "$2"
        with executing([None, 7]):
            assert p.value == 7
            with executing([None, 8]):
                assert p.value == 8
            assert p.value == 7

    def test_slot_count_is_the_highest_slot(self, vehicles_udb):
        stmt = PreparedQuery(parse("possible (select id from r where id < $3)"), vehicles_udb)
        assert stmt.parameter_count == 3
        assert len(stmt.run(None, None, 3)) > 0


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
    beside ``explain(analyze=True)`` of another.  Each is an execution
    with its own frame, so each sees its own key and its own counters."""
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
)
@settings(max_examples=40, deadline=None)
def test_prepared_matches_literal_queries(bindings):
    """Property: for any binding sequence, the prepared query answers
    exactly what the literal query answers, executed and by the reference."""
    udb = build_vehicles_udb()
    stmt = prepare("possible (select id from r where type = $1)", udb)
    for value in bindings:
        got = stmt.run(value)
        if value is None:
            assert len(got) == 0
            continue
        literal = Poss(UProject(USelect(Rel("r"), col("type").eq(lit(value))), ["id"]))
        assert got == execute_query(literal, udb) == reference_query(literal, udb)


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
    with the inner rows an earlier binding produced.  ``rows`` runs the
    statements through the reference, ``columns`` through the executor."""
    knobs = {"rows": {"mode": "rows", "use_indexes": False}, "columns": {}}[mode]
    udb = build_vehicles_udb()
    statement = prepare(template.format("$1"), udb)
    for key in keys:
        inlined = template.format(repr(key))
        fresh = reference_query(parse(inlined), build_vehicles_udb())
        assert len(fresh) > 0
        assert statement.run(key, **knobs) == fresh
        shared, lifted = text_statement(inlined, udb, True)
        assert lifted == (key,)
        assert shared.run(*lifted, **knobs) == fresh
        if mode == "columns":
            assert execute_sql(inlined, udb) == fresh


# ----------------------------------------------------------------------
# arity: one check, counted in the caller's own $n
# ----------------------------------------------------------------------
class TestArity:
    def test_by_shape_statement_never_reports_a_negative_count(self):
        udb = _groups_udb()
        execute_sql("possible (select v from t where g = 3)", udb)
        (stmt,) = udb._statement_shapes.values()
        for call in (stmt.run, lambda: stmt.explain(analyze=True), lambda: stmt.bind(())):
            with pytest.raises(ValueError) as error:
                call()
            assert "-" not in str(error.value)
            assert "1 literal(s) lifted out of its text, got 0 value(s)" in str(error.value)
        assert len(stmt.run(3)) == 4

    def test_prepared_dml_takes_no_options(self, vehicles_udb):
        stmt = prepare("insert into r values ($1, 'Tank', 'Friend')", vehicles_udb)
        with pytest.raises(TypeError):
            stmt.run(70, mode="colunms")
        assert stmt.run(70).count == 1

    def test_every_entry_checks_the_count_the_same_way(self, vehicles_udb):
        query = prepare("possible (select id from r where type = $1)", vehicles_udb)
        dml = prepare("delete from r where id = $1", vehicles_udb)
        calls = [
            lambda: query.run(),
            lambda: query.explain("Tank", "Extra"),
            lambda: query.bind(()),
            lambda: dml.run(),
            lambda: Transaction(vehicles_udb).run(dml, (1, 2)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"takes 1 parameter\(s\), got [02]$"):
                call()


# ----------------------------------------------------------------------
# (a) one statement, one plan, N concurrent executions
# ----------------------------------------------------------------------
def _groups_udb(groups: int = 8) -> UDatabase:
    """``t(g, v)``, indexed: group ``g`` has ``g + 1`` rows, ``v`` 0..g."""
    udb = UDatabase()
    attributes = ["g", "v"]
    udb.add_relation(
        "t", attributes, [URelation.build([], tid_column("t"), [a]) for a in attributes]
    )
    udb.copy_rows("t", [(g, v) for g in range(groups) for v in range(g + 1)])
    udb.compact()
    udb.build_indexes()
    return udb


def _lockstep(monkeypatch, parties: int) -> None:
    """Force overlap: every execution waits for the others when its frame
    is installed and again when its plan has run, before anything reads
    the counters or the summary."""
    barrier = threading.Barrier(parties, timeout=30)
    real = physical.execute

    def execute_in_lockstep(plan, **kwargs):
        barrier.wait()
        result = real(plan, **kwargs)
        barrier.wait()
        return result

    monkeypatch.setattr(physical, "execute", execute_in_lockstep)


@pytest.mark.parametrize("wrapper", ["possible", "conf"])
def test_concurrent_runs_of_one_statement_share_one_plan(wrapper, monkeypatch):
    """8 threads, one prepared statement, a different ``$1`` each, all in
    the executor at once: every answer, every trace's operator counts and
    every ``conf`` summary is the request's own, and one plan was built."""
    threads = 8
    udb = _groups_udb(threads)
    stmt = prepare(f"{wrapper} (select v from t where g = $1)", udb)
    stmt.explain()  # planned here: threads that miss on one key together would each plan
    _lockstep(monkeypatch, threads)
    wrong, errors = [], []

    def client(key):
        try:
            with start_trace("query", force=True) as trace:
                answer = stmt.run(key)
            values = sorted(row[0] for row in answer.rows)
            if values != list(range(key + 1)):
                wrong.append((key, "rows", values))
            if trace.root.attrs["operators"]["actual_rows"] != key + 1:
                wrong.append((key, "operators", trace.root.attrs["operators"]))
            if wrapper == "conf" and answer.conf["groups"] != key + 1:
                wrong.append((key, "summary", answer.conf))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    clients = [threading.Thread(target=client, args=(key,)) for key in range(threads)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in clients)
    assert not errors and not wrong, (errors, wrong[:3])
    assert plan_cache_stats()["misses"] == 1


def test_concurrent_runs_under_a_short_switch_interval():
    """More threads than cores on one statement, switching every 10 us."""
    udb = _groups_udb(8)
    stmt = prepare("conf (select v from t where g = $1)", udb)
    stmt.explain()
    wrong, errors = [], []

    def client(offset):
        try:
            for i in range(100):
                key = (offset + i) % 8
                answer = stmt.run(key)
                if len(answer.rows) != key + 1 or answer.conf["groups"] != key + 1:
                    wrong.append((key, len(answer.rows), answer.conf))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    clients = [threading.Thread(target=client, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clients)
    assert not errors and not wrong, (errors, wrong[:3])
    assert plan_cache_stats()["misses"] == 1


# ----------------------------------------------------------------------
# (c) frame hygiene
# ----------------------------------------------------------------------
def test_a_failed_execution_leaves_the_threads_frame_in_place(vehicles_udb, monkeypatch):
    stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
    tanks = stmt.run("Tank")
    standing = frame.params, frame.counters, frame.summaries
    with pytest.raises(ValueError):
        stmt.run()  # bad arity

    def failing_kernel(*_args, **_kwargs):
        raise RuntimeError("kernel failed")

    with monkeypatch.context() as patch:
        patch.setattr(physical, "execute", failing_kernel)
        with executing(["outer"]):
            counters = frame.counters
            with pytest.raises(RuntimeError):
                stmt.run("Transport")
            assert frame.params == ("outer",) and frame.counters is counters
    assert all(now is was for now, was in zip((frame.params, frame.counters, frame.summaries), standing))
    assert stmt.run("Tank") == tanks


def test_bind_then_execute_then_actuals_by_hand(vehicles_udb):
    """The sequence a caller driving the layers itself uses (the layers
    benchmark does): no scoped frame, the thread's standing one."""
    query = parse("possible (select id from r where type = $1)")
    stmt = PreparedQuery(query, vehicles_udb)
    inner = translate(query.child, vehicles_udb)
    plan = plan_physical(
        optimize(Distinct(Project(inner.plan, list(inner.value_names)))),
        use_indexes=True,
        fuse=True,
    )
    for value in ("Tank", "Transport", "Tank"):
        stmt.bind((value,))
        relation = execute(plan, mode="columns")
        assert relation == stmt.run(value)
        assert plan.actuals()["actual_rows"] == plan.actual_rows == len(relation)
    with pytest.raises(ValueError):
        stmt.bind(())
    confidence, _ = _planned(parse("conf (select id from r)"), vehicles_udb)
    assert confidence.last_summary is None
    answer = execute(confidence)
    assert confidence.last_summary["groups"] == len(answer)
    execute(plan)  # what a run counted replaces what the frame held
    assert confidence.last_summary is None and confidence.actual_rows is None


def test_no_frame_outlives_its_execution_on_a_worker_thread():
    """A frame's counters are keyed by plan node, so a frame kept by a pool
    thread would pin the plan and the relation versions it scans."""
    udb = _groups_udb(4)
    stmt = PreparedQuery(parse("possible (select v from t where g = $1)"), udb)
    with ThreadPoolExecutor(max_workers=1) as pool:  # the worker stays alive
        assert len(pool.submit(stmt.run, 2).result(timeout=30)) == 3
        plan, was_cached = _planned(stmt.query, udb)
        assert was_cached
        ref = weakref.ref(plan)
        del plan
        reset_plan_cache()
        gc.collect()
        assert ref() is None


def test_explain_of_a_parameterized_statement_needs_no_values(vehicles_udb):
    """Planning never reads a ``$n`` value: a point key, range bounds and a
    residual slot all plan and render under an empty frame."""
    query = parse(
        "possible (select id from r where id between $1 and $2 and type = $3 and faction <> $4)"
    )
    with executing():
        assert frame.params == ()
        text = explain_query(query, vehicles_udb)
    assert "$1" in text and "$3" in text and "$4" in text
    assert PreparedQuery(query, vehicles_udb).explain().splitlines()[0].endswith("(cached)")


# ----------------------------------------------------------------------
# (d) executing assigns nothing on a plan but its plan-only memos
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpch():
    from repro.ugen import generate_uncertain

    udb = generate_uncertain(scale=0.001, x=0.05, z=0.25, seed=1).udb
    udb.build_indexes()
    return udb


def _node_state(plan):
    """id(node) -> (node, its attributes) for every node of a plan."""
    state, stack = {}, [plan]
    while stack:
        node = stack.pop()
        attrs = {}
        for name, value in vars(node).items():
            if name in ("_select", "_planned"):
                continue  # kernels derived from the plan alone, on first execution
            if isinstance(value, (list, dict)):
                value = (id(value), repr(value))
            attrs[name] = value
        state[id(node)] = (node, attrs)
        stack.extend(node.children)
    return state


@pytest.mark.parametrize(
    "sql, bindings",
    [
        ("possible (select o.totalprice from orders o where o.orderkey = $1)", [(1,), (7,)]),
        (None, [(), ()]),  # Figure 12 Q1
        ("conf (select c.mktsegment from customer c where c.nationkey = $1)", [(3,), (5,)]),
    ],
    ids=["point", "q1", "conf"],
)
def test_executing_leaves_plan_nodes_unchanged(tpch, sql, bindings):
    stmt = PreparedQuery(q1() if sql is None else parse(sql), tpch)
    plan, _cached = _planned(stmt.query, tpch)
    before = _node_state(plan)
    for params in bindings:
        stmt.run(*params)
        stmt.explain(*params, analyze=True)
    after = _node_state(plan)
    assert before.keys() == after.keys()
    for key, (node, attrs) in before.items():
        now = after[key][1]
        assert attrs.keys() == now.keys(), type(node).__name__
        for name, value in attrs.items():
            assert now[name] is value or now[name] == value, (type(node).__name__, name)


# ----------------------------------------------------------------------
# (e) DML and certain() see their values
# ----------------------------------------------------------------------
def test_update_and_certain_see_their_bindings():
    udb = _groups_udb(4)
    update = prepare("update t set v = $1 where g = $2", udb)
    certain = prepare("certain (select v from t where g = $1)", udb)
    assert sorted(certain.run(2).rows) == [(0,), (1,), (2,)]
    assert update.run(9, 2).count == 3
    assert sorted(certain.run(2).rows) == [(9,)]
    assert sorted(certain.run(1).rows) == [(0,), (1,)]
    assert update.run(5, 1).count == 2
    assert sorted(certain.run(1).rows) == [(5,)]
    assert sorted(certain.run(2).rows) == [(9,)]
