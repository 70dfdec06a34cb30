"""What a write costs, counted: no rebuilds, no recomputed statistics, no leak.

The write path derives a new relation version per touched partition and
*carries* the old version's built indexes, column vectors and statistics
along the delta (``Relation._derive``).  These tests pin that down by
counting, never by timing: the from-scratch constructors
(``HashIndex._build``, ``SortedIndex._build``, ``ColumnStats.__init__``)
are wrapped, and a mixed write/read sequence over an indexed relation
must not reach them - except that statistics are recomputed once the
writes cross the analyze threshold, and on ``refresh_statistics``.  The
per-column all-⊤ fact the translation reads, and the join probe tables
(``Index.mixed_table``), are counted the same way.  The last test counts
superseded relation versions still alive after writes through a server.
"""

from __future__ import annotations

import gc

import pytest

import repro.relational.relation as relation_module
from repro.core.descriptor import TOP_VARIABLE
from repro.core.translate import explain_query
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational import Relation, refresh_statistics
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.statistics import (
    ANALYZE_SCALE_FACTOR,
    ANALYZE_THRESHOLD,
    ColumnStats,
    table_stats,
)
from repro.sql import execute_sql, parse

ATTRIBUTES = ["id", "kind", "score"]
LOOKUP = "possible (select kind, score from events where id = {key})"
#: Probes ``a``'s sorted ``id`` index with ``b.score``, and hash tid
#: indexes at the merges.
KEY_JOIN = (
    "possible (select a.kind from events a, events b "
    "where a.id = b.score and b.id = {key})"
)


def _events(count: int) -> UDatabase:
    """``events`` in one partition per attribute, indexes and statistics built."""
    udb = UDatabase()
    tid = tid_column("events")
    udb.add_relation(
        "events", ATTRIBUTES, [URelation.build([], tid, [a]) for a in ATTRIBUTES]
    )
    udb.copy_rows("events", [(i, f"k{i % 5}", i % 100) for i in range(count)])
    udb.compact()
    udb.build_indexes()
    for part in udb.partitions("events"):
        for name in part.relation.schema.names:
            table_stats(part.relation).column(name)
    return udb


@pytest.fixture
def built(monkeypatch):
    """Count calls of the three from-scratch constructors."""
    calls = {"hash": 0, "sorted": 0, "stats": 0}

    def counting(cls, method, key):
        real = getattr(cls, method)

        def counted(self, *args, **kwargs):
            calls[key] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)

    counting(HashIndex, "_build", "hash")
    counting(SortedIndex, "_build", "sorted")
    counting(ColumnStats, "__init__", "stats")
    return calls


def _lookup(udb, key):
    return set(map(tuple, execute_sql(LOOKUP.format(key=key), udb).rows))


def test_writes_and_the_reads_after_them_build_nothing(built):
    udb = _events(2000)
    assert built == {"hash": 3, "sorted": 3, "stats": 3 * 4}  # set-up only
    built.update(hash=0, sorted=0, stats=0)

    execute_sql("insert into events values (5000, 'new', 1)", udb)
    assert _lookup(udb, 5000) == {("new", 1)}
    batch = ", ".join(f"({6000 + i}, 'batch', {i})" for i in range(64))
    execute_sql(f"insert into events values {batch}", udb)
    assert _lookup(udb, 6063) == {("batch", 63)}
    execute_sql("update events set kind = 'upd' where id = 7", udb)
    assert _lookup(udb, 7) == {("upd", 7)}
    execute_sql("delete from events where id = 8", udb)
    assert _lookup(udb, 8) == set()
    execute_sql("begin", udb)
    execute_sql("insert into events values (5001, 'txn', 2)", udb)
    execute_sql("update events set score = 99 where id = 9", udb)
    execute_sql("commit", udb)
    assert _lookup(udb, 5001) == {("txn", 2)}
    assert _lookup(udb, 9) == {("k4", 99)}
    execute_sql("vacuum events", udb)
    execute_sql("insert into events values (5002, 'late', 3)", udb)
    assert _lookup(udb, 5002) == {("late", 3)}
    assert _lookup(udb, 7) == {("upd", 7)}

    assert built == {"hash": 0, "sorted": 0, "stats": 0}
    # every partition still answers through its carried indexes
    for part in udb.partitions("events"):
        assert len(part.relation._indexes) == 2
        assert not getattr(part.relation, "_pending_indexes", None)


def test_statistics_recompute_once_past_the_analyze_threshold(built):
    udb = _events(2000)
    built.update(hash=0, sorted=0, stats=0)
    crossing = int(ANALYZE_THRESHOLD + ANALYZE_SCALE_FACTOR * 2000) + 1
    batch = ", ".join(f"({9000 + i}, 'bulk', 5)" for i in range(crossing))
    execute_sql(f"insert into events values {batch}", udb)

    def workload():
        assert _lookup(udb, 9000) == {("bulk", 5)}
        execute_sql("update events set score = 6 where id = 9001", udb)
        assert _lookup(udb, 9001) == {("bulk", 6)}

    workload()
    recomputed = built["stats"]
    assert 0 < recomputed <= 3 * 4  # each column the plans ask for, once
    workload()
    assert built["stats"] == recomputed  # ... and not again

    for part in udb.partitions("events"):
        refresh_statistics(part.relation)
    workload()
    assert built["stats"] == 2 * recomputed
    assert built["hash"] == built["sorted"] == 0


def test_a_certain_insert_carries_the_all_top_facts(monkeypatch):
    """The translation reads each partition's "descriptor slot 1 is all-⊤"
    fact; a certain INSERT carries it over the appended rows alone, so the
    read after it counts no column in full."""
    udb = _events(2000)
    assert _lookup(udb, 7) == {("k2", 7)}  # computes the facts, once
    counted = []
    real = relation_module.countOf

    def counting(iterable, value):
        counted.append(value)
        return real(iterable, value)

    monkeypatch.setattr(relation_module, "countOf", counting)
    execute_sql("insert into events values (5000, 'new', 1)", udb)
    assert _lookup(udb, 5000) == {("new", 1)}
    assert counted == []
    for part in udb.partitions("events"):
        assert part.relation._all_equal == {(0, TOP_VARIABLE): True}
    assert Relation(["c1"], [(TOP_VARIABLE,)]).column_all_equal(0, TOP_VARIABLE)
    assert counted == [TOP_VARIABLE]  # what a from-scratch fact costs


def test_an_insert_carries_the_join_probe_tables(monkeypatch):
    """A key join probes the inner side's sorted value index through its
    probe table, the merges the tid indexes' ones; an INSERT carries every
    built table along its delta, so neither the write nor the join after
    it builds one in full - and the join finds the inserted row."""
    udb = _events(2000)

    def tables():
        return {
            index.name
            for part in udb.partitions("events")
            for index in part.relation._indexes
            if index._mixed is not None
        }

    assert "idx_u_events_id_id" in explain_query(parse(KEY_JOIN.format(key=7)), udb)
    assert execute_sql(KEY_JOIN.format(key=7), udb).rows == [("k2",)]  # builds them
    probed = tables()
    assert {"idx_u_events_id_id", "idx_u_events_kind_tid"} <= probed
    builds = []
    for cls in (HashIndex, SortedIndex):
        real = cls._probe_table
        monkeypatch.setattr(
            cls, "_probe_table", lambda self, real=real: builds.append(self) or real(self)
        )

    execute_sql("insert into events values (5000, 'new', 5000)", udb)
    assert execute_sql(KEY_JOIN.format(key=5000), udb).rows == [("new",)]
    assert builds == []
    assert tables() == probed


@pytest.mark.parametrize("collector", [True, False], ids=["gc-on", "gc-off"])
def test_superseded_versions_are_collectable(collector):
    """40 x (prepared insert, lookup, lookup) through a server leave no
    old partition versions behind (the optimizer's statistics cache used
    to pin all 160 of them, rows, vectors, indexes and all) - and with
    the cycle collector off they go by reference count alone: an index
    holds its relation weakly, so a superseded version is in no cycle and
    a server's memory does not depend on when the collector next runs."""
    udb = _events(4500)
    gc.collect()

    def big_relations():
        if collector:
            gc.collect()
        return sum(
            1
            for o in gc.get_objects()
            if isinstance(o, Relation) and len(o.rows) > 4000
        )

    before = big_relations()
    server = udb.serve(workers=2)
    try:
        if not collector:
            gc.disable()
        session = server.session()
        session.prepare("insert", "insert into events values ($1, $2, $3)")
        session.prepare("lookup", LOOKUP.format(key="$1"))
        for i in range(40):
            session.execute_prepared("insert", 10_000 + i, "w", i)
            assert session.execute_prepared("lookup", 10_000 + i).rows == [("w", i)]
            assert session.execute_prepared("lookup", i).rows == [(f"k{i % 5}", i)]
        # the current versions, plus at most what the last plans hold
        assert big_relations() <= before + 2 * len(ATTRIBUTES)
    finally:
        gc.enable()
        server.close()
