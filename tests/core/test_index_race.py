"""First index accesses over fresh versions racing index DDL.

An index is one definition listed on a relation version; its handle over
the version is built on the first ``indexes_on`` / ``index_named`` call
and memoized there.  Here ``THREADS`` threads make those first calls on
fresh partition versions, and run cached statements over them, while
another thread creates and drops indexes on the same partitions.  Every
answer must be the reference's, each index structure of each segment is
built once, and no call that starts after a ``DROP INDEX`` has returned
hands out the dropped definition.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from repro.core import reference_query
from repro.core.descriptor import Descriptor
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational import Relation
from repro.relational.index import (
    HashIndex,
    SortedIndex,
    built_indexes_on,
    index_defs_on,
    index_named,
    indexes_on,
)
from repro.sql import execute_sql, parse

from tests.conftest import partition_relation

THREADS = 4
ROUNDS = 25
ROWS = 300
SQL = "possible (select id from r where v = {})"
KEYS = (0, 3, 16)
#: The index the DDL thread creates and drops over and over, per label.
EXTRA = {"u_r_id": ("id", "hash"), "u_r_v": ("v", "sorted")}


def _partitions():
    tid = tid_column("r")
    return [
        URelation.build([(Descriptor(), i, (i,)) for i in range(ROWS)], tid, ["id"]),
        URelation.build([(Descriptor(), i, (i % 17,)) for i in range(ROWS)], tid, ["v"]),
    ]


def _fresh(part):
    """``part`` over a new relation of its rows: nothing built on it."""
    relation = Relation(part.relation.schema, part.relation.rows)
    return URelation(relation, part.d_width, part.tid_names, part.value_names)


def test_first_index_accesses_race_index_ddl(monkeypatch):
    builds = Counter()
    held = []  # keeps each counted row list alive, so its id stays its own
    fresh_rows = set()  # ids of the fresh segments' row lists
    # a first build over a fresh segment waits here for the other threads
    # (given up after a while: one that holds a lock waits alone)
    racing = threading.Barrier(THREADS, timeout=0.5)
    for cls in (HashIndex, SortedIndex):
        real = cls._build

        def counted(rows, positions, real=real, kind=cls.kind):
            builds[id(rows), kind, positions] += 1
            held.append(rows)
            if id(rows) in fresh_rows:
                try:
                    racing.wait()
                except threading.BrokenBarrierError:
                    pass
            return real(rows, positions)

        monkeypatch.setattr(cls, "_build", staticmethod(counted))

    udb = UDatabase()
    udb.add_relation("r", ["id", "v"], _partitions())
    for key in KEYS:
        execute_sql(SQL.format(key), udb)  # the cached plans
    old = udb.partitions("r")
    udb.add_relation("r", ["id", "v"], [_fresh(part) for part in old])
    fresh = {label: partition_relation(udb, label) for label in EXTRA}
    fresh_rows.update(id(relation.segments()[0].rows) for relation in fresh.values())
    assert not any(map(built_indexes_on, fresh.values()))
    expected = {
        key: sorted(reference_query(parse(SQL.format(key)), udb).rows) for key in KEYS
    }

    start = threading.Barrier(THREADS + 1, timeout=10)
    dropped = []  # the names whose DROP INDEX has returned
    errors = []

    def reader(n):
        try:
            start.wait()
            for round_ in range(ROUNDS):
                for label, relation in fresh.items():
                    gone = set(dropped)  # before the call starts
                    if (n + round_) % 2:
                        found = indexes_on(relation)
                    else:
                        found = [index_named(relation, d) for d in index_defs_on(relation)]
                    assert not gone & {index.name for index in found}
                for key in KEYS:
                    assert sorted(execute_sql(SQL.format(key), udb).rows) == expected[key]
        except Exception as error:  # reported below, on the main thread
            errors.append(error)

    def ddl():
        try:
            start.wait()
            for round_ in range(ROUNDS):
                for label, (column, kind) in EXTRA.items():
                    name = f"extra_{label}_{round_}"
                    udb.create_index(name, label, [column], kind=kind)
                    udb.drop_index(name)
                    dropped.append(name)
        except Exception as error:  # reported below, on the main thread
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(n,)) for n in range(THREADS)]
    threads.append(threading.Thread(target=ddl))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors

    # each structure of each segment, old and fresh, was built once
    assert builds and max(builds.values()) == 1, builds
    for label, relation in fresh.items():
        (segment,) = relation.segments()
        assert any(key[0] == id(segment.rows) for key in builds)
        # the policy's definitions are listed and built, the dropped ones gone
        column = EXTRA[label][0]
        names = [d.name for d in index_defs_on(relation)]
        assert names == [f"idx_{label}_tid", f"idx_{label}_{column}"]
        handles = indexes_on(relation)
        assert {index.name for index in handles} == {d.name for d in index_defs_on(relation)}
        # the first handle stored stays: both entry points hand out the same one
        for index in handles:
            assert index_named(relation, index.definition) is index
    for key in KEYS:
        assert sorted(execute_sql(SQL.format(key), udb).rows) == expected[key]
