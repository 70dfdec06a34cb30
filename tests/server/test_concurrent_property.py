"""Concurrent correctness: parallel answers identical to serial execution.

The serving subsystem's core promise: N threads running a mix of cached,
prepared, and cold queries — through raw ``execute_query`` and through
server-bound sessions, across all three execution modes — always receive
answers identical to serial execution, even while a DDL thread bumps the
catalog (index create/drop, statistics refresh) under them.

Index DDL never changes *what* a query answers, only how it executes, so
the serial baseline is well-defined throughout.  Without DDL the
comparison is byte-identical (same rows, same order, per mode); under
concurrent DDL a plan may legitimately switch access paths mid-run, which
can permute row order, so that comparison is on row multisets.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core import execute_query
from repro.core.query import Poss, Rel, UJoin, UProject, USelect
from repro.relational.expressions import col, lit
from repro.server import QueryServer
from repro.sql import execute_sql

from tests.conftest import build_vehicles_udb

MODES = ["rows", "columns"]


def _query_pool():
    """(name, query builder) pairs covering selection/join/projection mixes."""

    def by_type(value):
        return Poss(USelect(Rel("r"), col("type").eq(lit(value))))

    def by_faction(value):
        return Poss(
            UProject(USelect(Rel("r"), col("faction").eq(lit(value))), ["id"])
        )

    def self_join():
        return Poss(
            UProject(
                UJoin(
                    Rel("r", "x"),
                    Rel("r", "y"),
                    col("x.type").eq(col("y.type")),
                ),
                ["x.id", "y.id"],
            )
        )

    def by_id_threshold(k):
        return Poss(USelect(Rel("r"), col("id") > lit(k)))

    pool = [
        ("tank", by_type("Tank")),
        ("transport", by_type("Transport")),
        ("friend", by_faction("Friend")),
        ("enemy", by_faction("Enemy")),
        ("self-join", self_join()),
    ]
    # distinct literals => distinct plan-cache entries: the "cold" mix
    pool.extend((f"cold-{k}", by_id_threshold(k)) for k in range(4))
    return pool


def _rows_of(result):
    relation = getattr(result, "relation", result)
    return list(relation.rows)


@pytest.mark.parametrize("mode", MODES)
def test_threads_running_mixed_queries_match_serial_exactly(mode):
    """No DDL: every concurrent answer is byte-identical (ordered) to the
    serial answer in the same mode."""
    udb = build_vehicles_udb()
    pool = _query_pool()
    expected = {name: _rows_of(execute_query(q, udb, mode=mode)) for name, q in pool}
    mismatches = []

    def worker(offset):
        for i in range(12):
            name, query = pool[(offset + i) % len(pool)]
            got = _rows_of(execute_query(query, udb, mode=mode))
            if got != expected[name]:
                mismatches.append((name, mode))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not mismatches


def test_threads_with_concurrent_ddl_match_serial_multisets():
    """A DDL thread creates/drops indexes and refreshes statistics while
    six query threads run the mixed workload across all modes; answers
    stay multiset-identical to serial."""
    udb = build_vehicles_udb()
    db = udb.to_database()
    pool = _query_pool()
    expected = {
        name: Counter(_rows_of(execute_query(q, udb))) for name, q in pool
    }
    mismatches = []
    errors = []
    stop = threading.Event()

    def ddl_thread():
        try:
            toggle = 0
            while not stop.is_set():
                name = f"i_churn_{toggle % 2}"
                udb.create_index(name, "u_r_type", ["type"], kind="hash")
                db.analyze("u_r_id")
                udb.drop_index(name)
                toggle += 1
        except Exception as error:  # pragma: no cover - the assertion
            errors.append(error)

    def worker(offset):
        try:
            for i in range(15):
                name, query = pool[(offset + i) % len(pool)]
                mode = MODES[(offset + i) % len(MODES)]
                got = Counter(_rows_of(execute_query(query, udb, mode=mode)))
                if got != expected[name]:
                    mismatches.append((name, mode))
        except Exception as error:  # pragma: no cover - the assertion
            errors.append(error)

    churner = threading.Thread(target=ddl_thread)
    workers = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    churner.start()
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    stop.set()
    churner.join(timeout=30)
    assert not errors
    assert not mismatches


def test_server_sessions_with_ddl_match_serial_multisets():
    """The same guarantee through the full serving stack: server-bound
    sessions (admission + pool + coalescing) with a DDL churner."""
    udb = build_vehicles_udb()
    statements = {
        "tank": ("possible (select id, type from r where type = $1)", ("Tank",)),
        "transport": (
            "possible (select id, type from r where type = $1)",
            ("Transport",),
        ),
        "enemy": ("possible (select id from r where faction = 'Enemy')", ()),
        "all": ("possible (select id, type, faction from r)", ()),
    }
    baseline_session = udb.session()
    expected = {
        name: Counter(_rows_of(baseline_session.execute(sql, params)))
        for name, (sql, params) in statements.items()
    }
    server = QueryServer(udb, workers=4)
    mismatches = []
    errors = []
    stop = threading.Event()

    def ddl_thread():
        try:
            toggle = 0
            while not stop.is_set():
                name = f"i_serve_{toggle % 2}"
                udb.create_index(name, "u_r_type", ["type"], kind="hash")
                udb.drop_index(name)
                toggle += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def client(offset):
        try:
            session = server.session()
            names = sorted(statements)
            for i in range(20):
                name = names[(offset + i) % len(names)]
                sql, params = statements[name]
                got = Counter(_rows_of(session.execute(sql, params)))
                if got != expected[name]:
                    mismatches.append(name)
        except Exception as error:  # pragma: no cover
            errors.append(error)

    churner = threading.Thread(target=ddl_thread)
    clients = [threading.Thread(target=client, args=(t,)) for t in range(5)]
    churner.start()
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=120)
    stop.set()
    churner.join(timeout=30)
    server.close()
    assert not errors
    assert not mismatches


def test_lazy_index_builds_race_free():
    """Many threads planning over a fresh UDatabase trigger the deferred
    auto-index builds concurrently; every index is built exactly once and
    every answer is correct."""
    udb = build_vehicles_udb()  # auto-index definitions are still pending
    expected = Counter(
        _rows_of(execute_query(Poss(USelect(Rel("r"), col("type").eq(lit("Tank")))), udb))
    )
    fresh = build_vehicles_udb()
    results = []
    errors = []

    def worker():
        try:
            query = Poss(USelect(Rel("r"), col("type").eq(lit("Tank"))))
            results.append(Counter(_rows_of(execute_query(query, fresh))))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert all(r == expected for r in results)
    # exactly one tid index + one value index per partition (no duplicates
    # from racing builds)
    from repro.relational.index import built_indexes_on

    for part in fresh.partitions("r"):
        names = [index.name for index in built_indexes_on(part.relation)]
        assert len(names) == len(set(names))


def test_concurrent_dml_readers_see_only_statement_boundaries():
    """A writer thread appends rows one statement at a time while reader
    threads query in all three modes; every answer equals the serial
    answer *after some prefix of the statements* — never a torn state
    where one vertical partition has a row the others lack."""
    inserts = [(100 + i, "Tank" if i % 2 else "Jeep", "Friend") for i in range(12)]
    query = Poss(UProject(Rel("r"), ["id", "type", "faction"]))

    # serial twin: replay the statements to enumerate every valid state
    twin = build_vehicles_udb()
    valid = [frozenset(_rows_of(execute_query(query, twin)))]
    for row in inserts:
        execute_sql("insert into r values (%d, '%s', '%s')" % row, twin)
        valid.append(frozenset(_rows_of(execute_query(query, twin))))
    states = set(valid)

    udb = build_vehicles_udb()
    torn = []
    errors = []
    done = threading.Event()

    def writer():
        try:
            for row in inserts:
                execute_sql("insert into r values (%d, '%s', '%s')" % row, udb)
        except Exception as error:  # pragma: no cover
            errors.append(error)
        finally:
            done.set()

    def reader(offset):
        try:
            i = 0
            while not done.is_set() or i < 6:
                mode = MODES[(offset + i) % len(MODES)]
                answer = frozenset(_rows_of(execute_query(query, udb, mode=mode)))
                if answer not in states:
                    torn.append((mode, sorted(answer)))
                i += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    writer_thread = threading.Thread(target=writer)
    readers = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
    writer_thread.start()
    for t in readers:
        t.start()
    writer_thread.join(timeout=120)
    for t in readers:
        t.join(timeout=120)
    assert not errors
    assert not torn
    # the final state is the full serial application, in every mode
    for mode in MODES:
        assert frozenset(_rows_of(execute_query(query, udb, mode=mode))) == valid[-1]


def test_snapshot_reads_stable_under_concurrent_dml():
    """Inside ``session.snapshot()`` a reader either sees answers
    identical to one serial state on every statement, or gets
    ``SnapshotChanged`` — concurrent DML can never mix pre- and
    post-write answers within one snapshot block."""
    from repro.server.session import SnapshotChanged

    inserts = [(200 + i, "Tank", "Friend") for i in range(10)]
    sql = "possible (select id, type, faction from r)"

    twin = build_vehicles_udb()
    states = {frozenset(_rows_of(twin.session().execute(sql, ())))}
    for row in inserts:
        execute_sql("insert into r values (%d, '%s', '%s')" % row, twin)
        states.add(frozenset(_rows_of(twin.session().execute(sql, ()))))

    udb = build_vehicles_udb()
    mismatches = []
    errors = []
    retries = [0]
    done = threading.Event()

    def writer():
        try:
            session = udb.session()
            for row in inserts:
                session.execute("insert into r values (%d, '%s', '%s')" % row, ())
        except Exception as error:  # pragma: no cover
            errors.append(error)
        finally:
            done.set()

    def reader():
        try:
            session = udb.session()
            while not done.is_set():
                try:
                    with session.snapshot():
                        seen = [
                            frozenset(_rows_of(session.execute(sql, ())))
                            for _ in range(3)
                        ]
                except SnapshotChanged:
                    retries[0] += 1
                    continue
                if len(set(seen)) != 1 or seen[0] not in states:
                    mismatches.append(sorted(seen[0]))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    writer_thread = threading.Thread(target=writer)
    readers = [threading.Thread(target=reader) for _ in range(4)]
    writer_thread.start()
    for t in readers:
        t.start()
    writer_thread.join(timeout=120)
    for t in readers:
        t.join(timeout=120)
    assert not errors
    assert not mismatches
    # and a quiesced snapshot sees exactly the fully-written state
    session = udb.session()
    with session.snapshot():
        final = frozenset(_rows_of(session.execute(sql, ())))
    assert final == frozenset(_rows_of(twin.session().execute(sql, ())))


def test_prepared_writers_interleave_without_lost_updates():
    """N sessions hammer one prepared INSERT concurrently; every logical
    tuple lands (writes serialize on the write lock, and identical DML
    texts never coalesce into one shared flight)."""
    udb = build_vehicles_udb()
    server = QueryServer(udb, workers=4)
    errors = []

    def client(offset):
        try:
            session = server.session()
            for i in range(10):
                result = session.execute(
                    "insert into r values ($1, 'Tank', 'Friend')",
                    (1000 + offset * 10 + i,),
                )
                assert result.count == 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    clients = [threading.Thread(target=client, args=(t,)) for t in range(5)]
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=120)
    server.close()
    assert not errors
    answer = _rows_of(
        execute_query(Poss(UProject(Rel("r"), ["id"])), udb)
    )
    inserted = {row[0] for row in answer if isinstance(row[0], int) and row[0] >= 1000}
    assert inserted == set(range(1000, 1050))
    stats = server.stats()
    assert stats["admission"]["dml"]["admitted"] == 50
    assert stats["executor"]["coalesced"] == 0  # DML never coalesces


def test_metrics_are_exact_under_concurrency():
    """Six session threads run a fixed workload; afterwards every counter
    equals the arithmetic total — no lost increments under contention —
    and the answers still match serial execution.

    Coalescing is off so each request is its own execution: the expected
    counts are exact, not bounds.
    """
    udb = build_vehicles_udb()
    server = QueryServer(udb, workers=4, coalesce=False)
    statements = [
        "possible (select id from r where type = 'Tank')",
        "possible (select id from r where type = 'Transport')",
        "possible (select id from r where faction = 'Enemy')",
        "possible (select id, type, faction from r)",
    ]
    baseline = udb.session()
    expected = {
        sql: Counter(_rows_of(baseline.execute(sql, ()))) for sql in statements
    }
    THREADS, LOOPS = 6, 12
    mismatches = []
    errors = []

    sessions = [server.session() for _ in range(THREADS)]

    def reader(offset):
        try:
            session = sessions[offset]
            for i in range(LOOPS):
                sql = statements[(offset + i) % len(statements)]
                got = Counter(_rows_of(session.execute(sql, ())))
                if got != expected[sql]:
                    mismatches.append(sql)
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def writer(offset):
        try:
            # one insert per thread, unique id: exact DML totals
            sessions[offset].execute(
                "insert into r values ($1, 'Tank', 'Friend')", (500 + offset,)
            )
        except Exception as error:  # pragma: no cover
            errors.append(error)

    from repro.obs import metrics_snapshot, reset_metrics
    from repro.relational import reset_plan_cache

    # drop the session-setup and baseline increments: count the workload
    # only, from an empty plan cache.  Each text is sent once before the
    # threads start, because two requests that miss on one key at the same
    # moment both plan (duplicated work, by design): what the concurrent
    # run must show is that it builds no plan beyond these
    reset_metrics()
    reset_plan_cache()
    for sql in statements:
        sessions[0].execute(sql, ())

    # queries first, then writes — concurrent inserts would change the
    # expected answers out from under the readers
    for phase in (reader, writer):
        threads = [
            threading.Thread(target=phase, args=(t,)) for t in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    server.close()
    assert not errors
    assert not mismatches

    queries = THREADS * LOOPS + len(statements)
    requests = queries + THREADS  # + one insert per thread
    snap = metrics_snapshot()
    counters = snap["counters"]

    assert sum(counters["queries_total"].values()) == queries
    # plans are shared across sessions: the literal-free text plans once,
    # and the other three are two shapes (type = <str>, faction = <str>)
    # whose statements live on the database; each of those plans once,
    # however many sessions have it in flight
    cold = sum(
        count
        for labels, count in counters["queries_total"].items()
        if "cached=false" in labels
    )
    shapes = list(udb._statement_shapes.values())
    assert len(shapes) == 2
    assert cold == 1 + len(shapes)
    assert "sessions_opened_total" not in counters  # all opened pre-reset
    assert counters["dml_statements_total"] == {"op=insert": THREADS}
    assert counters["dml_rows_total"] == {"op=insert": THREADS}
    assert sum(counters["admission_admitted_total"].values()) == requests
    assert counters["executor_executed_total"] == {"": requests}
    assert "executor_coalesced_total" not in counters  # coalescing was off

    # every request was traced and timed exactly once
    latency = snap["histograms"]["query_seconds"]
    assert sum(series["count"] for series in latency.values()) == requests


def test_compaction_races_readers_writers_and_snapshots():
    """A VACUUM churner rewrites segment stacks while two writers append,
    two readers query, and a snapshot reader demands repeatable reads —
    six threads total.  Compaction must be answer-invisible: every read
    sees the base rows plus a per-writer *prefix* of that writer's
    inserts (statements are atomic, no torn vertical state, no lost
    updates), snapshots either stay internally consistent or raise
    ``SnapshotChanged``, and the quiesced database matches the serial
    twin byte-for-byte in every mode."""
    from repro.server.session import SnapshotChanged

    PER_WRITER = 12
    writer_ids = {t: [2000 + t * 100 + i for i in range(PER_WRITER)] for t in (0, 1)}
    query = Poss(UProject(Rel("r"), ["id", "type", "faction"]))
    sql = "possible (select id, type, faction from r)"

    twin = build_vehicles_udb()
    base_rows = frozenset(_rows_of(execute_query(query, twin)))
    for ids in writer_ids.values():
        for i in ids:
            execute_sql(f"insert into r values ({i}, 'Tank', 'Friend')", twin)
    twin.compact()

    udb = build_vehicles_udb()
    violations = []
    errors = []
    compacted = [0]
    done = threading.Event()

    def writer(t):
        try:
            for i in writer_ids[t]:
                execute_sql(f"insert into r values ({i}, 'Tank', 'Friend')", udb)
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def vacuum():
        try:
            while not done.is_set():
                result = udb.compact()
                if result.changed:
                    compacted[0] += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def check(answer, context):
        if not base_rows <= answer:
            violations.append((context, "base rows lost"))
        seen_ids = {row[0] for row in answer}
        for t, ids in writer_ids.items():
            flags = [i in seen_ids for i in ids]
            if flags != sorted(flags, reverse=True):  # not a prefix
                violations.append((context, f"writer {t} insert torn"))

    def reader(offset):
        try:
            i = 0
            while not done.is_set() or i < 6:
                mode = MODES[(offset + i) % len(MODES)]
                check(
                    frozenset(_rows_of(execute_query(query, udb, mode=mode))),
                    f"reader-{mode}",
                )
                i += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def snapshot_reader():
        try:
            session = udb.session()
            while not done.is_set():
                try:
                    with session.snapshot():
                        seen = [
                            frozenset(_rows_of(session.execute(sql, ())))
                            for _ in range(3)
                        ]
                except SnapshotChanged:
                    continue  # compaction/DML legitimately moved the catalog
                if len(set(seen)) != 1:
                    violations.append(("snapshot", "answers moved inside block"))
                else:
                    check(seen[0], "snapshot")
        except Exception as error:  # pragma: no cover
            errors.append(error)

    writers = [threading.Thread(target=writer, args=(t,)) for t in (0, 1)]
    others = [
        threading.Thread(target=vacuum),
        threading.Thread(target=reader, args=(0,)),
        threading.Thread(target=reader, args=(1,)),
        threading.Thread(target=snapshot_reader),
    ]
    for t in others:
        t.start()
    for t in writers:
        t.start()
    for t in writers:
        t.join(timeout=120)
    done.set()
    for t in others:
        t.join(timeout=120)
    assert not errors
    assert not violations
    # quiesced: one final VACUUM, then identical to the serial twin.
    # Interleaved writers permute insertion order, so the cross-database
    # comparison sorts; *within* udb, every mode must agree byte-for-byte
    # on one answer (a stale columnar plan would diverge here).
    udb.compact()
    for part in udb.partitions("r"):
        assert len(part.relation.segments()) == 1
        assert part.relation.deleted_ordinals() == frozenset()
    answers = {
        mode: _rows_of(execute_query(query, udb, mode=mode)) for mode in MODES
    }
    for mode in MODES:
        assert sorted(answers[mode]) == sorted(
            _rows_of(execute_query(query, twin, mode=mode))
        ), mode
    assert answers["rows"] == answers["columns"]


def test_transactions_all_or_nothing_under_interleaving():
    """Six sessions each commit a multi-statement transaction (retrying
    first-updater-wins conflicts) while a reader watches: no reader ever
    sees part of a transaction's batch, and every batch eventually
    lands."""
    from repro.core.txn import TransactionConflict

    THREADS, BATCH = 6, 3
    server = QueryServer(build_vehicles_udb(), workers=4)
    udb = server.udb
    batches = {
        t: [3000 + t * 10 + i for i in range(BATCH)] for t in range(THREADS)
    }
    partials = []
    errors = []
    done = threading.Event()

    def txn_client(t):
        try:
            session = server.session()
            for attempt in range(200):
                session.begin()
                try:
                    for i in batches[t]:
                        session.execute(
                            "insert into r values ($1, 'Tank', 'Friend')", (i,)
                        )
                    session.commit()
                    return
                except TransactionConflict:
                    continue  # fully rolled back: stage again from scratch
            errors.append(RuntimeError(f"client {t} never committed"))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def reader():
        try:
            session = server.session()
            while not done.is_set():
                rows = _rows_of(
                    session.execute("possible (select id from r)", ())
                )
                seen = {row[0] for row in rows}
                for t, ids in batches.items():
                    hit = sum(1 for i in ids if i in seen)
                    if hit not in (0, BATCH):
                        partials.append((t, hit))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    watcher = threading.Thread(target=reader)
    clients = [threading.Thread(target=txn_client, args=(t,)) for t in range(THREADS)]
    watcher.start()
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=120)
    done.set()
    watcher.join(timeout=120)
    server.close()
    assert not errors
    assert not partials
    final = {
        row[0]
        for row in _rows_of(execute_query(Poss(UProject(Rel("r"), ["id"])), udb))
    }
    for ids in batches.values():
        assert set(ids) <= final  # no lost updates
