"""Index DDL under contention: it happens under the write lock, or not at all.

``CREATE INDEX`` / ``DROP INDEX`` land on the *live* partition relation.
Every write derives a successor of that relation under
``udb._write_lock``, so DDL has to hold the same lock: a definition
attached to a version a writer is about to supersede — or has just
superseded — is acknowledged and then gone.
"""

from __future__ import annotations

import sys
import threading

from repro.core.descriptor import Descriptor
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational.index import built_indexes_on
from repro.sql import execute_sql


def _udb() -> UDatabase:
    udb = UDatabase()
    tid = tid_column("r")
    udb.add_relation(
        "r",
        ["id", "type"],
        [
            URelation.build([(Descriptor(), 0, (0,))], tid, ["id"]),
            URelation.build([(Descriptor(), 0, ("t",))], tid, ["type"]),
        ],
    )
    return udb


def test_create_index_waits_for_the_write_lock():
    """The interleaving that lost an index at the parent: DDL resolved the
    relation, a writer published, DDL attached to the superseded version.
    Held out by the lock: while another thread is inside the write path,
    CREATE INDEX does not return."""
    udb = _udb()
    holding, release, created = threading.Event(), threading.Event(), threading.Event()

    def writer():
        with udb._write_lock:
            holding.set()
            release.wait(timeout=10)

    def ddl():
        execute_sql("create index mine on u_r_id (id)", udb)
        created.set()

    threads = [threading.Thread(target=writer), threading.Thread(target=ddl)]
    threads[0].start()
    assert holding.wait(timeout=10)
    threads[1].start()
    assert not created.wait(timeout=0.3)  # at the parent it returned at once
    assert built_indexes_on(udb.partitions("r")[0].relation) == ()
    release.set()
    assert created.wait(timeout=10)
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert ("u_r_id", "mine", ("id",), "hash") in udb.index_defs()


def test_every_acknowledged_definition_survives_concurrent_writers():
    """4 writers x 200 single-row inserts beside 50 CREATE / DROP pairs:
    each insert replaces both partition relations, so an index attached
    outside the lock would sit on a version some insert superseded."""
    udb = _udb()
    expected = set(udb.index_defs())
    errors = []

    def writer(base):
        try:
            for i in range(200):
                execute_sql(f"insert into r values ({base + i}, 'w')", udb)
        except Exception as error:  # pragma: no cover - the assertion below
            errors.append(error)

    def ddl():
        try:
            for k in range(50):
                table, column = (("u_r_id", "id"), ("u_r_type", "type"))[k % 2]
                kind = ("hash", "sorted")[(k // 2) % 2]
                execute_sql(f"create index kept_{k} on {table} ({column}) using {kind}", udb)
                expected.add((table, f"kept_{k}", (column,), kind))
                execute_sql(f"create index gone_{k} on {table} ({column}) using {kind}", udb)
                execute_sql(f"drop index gone_{k}", udb)
        except Exception as error:  # pragma: no cover - the assertion below
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(1000 * (n + 1),)) for n in range(4)]
    threads.append(threading.Thread(target=ddl))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert udb.index_defs() == sorted(expected)
    assert len(expected) == 4 + 50
    answer = execute_sql("possible (select id from r)", udb)
    assert len(answer) == 1 + 4 * 200
    # the live partitions serve them: each kept index is built, once, there
    for label, part in zip(("u_r_id", "u_r_type"), udb.partitions("r")):
        names = [index.name for index in built_indexes_on(part.relation)]
        kept = [d[1] for d in expected if d[0] == label and d[1].startswith("kept_")]
        assert len(names) == len(set(names))
        assert set(kept) <= set(names)
