"""What a write costs, counted: no base row indexed again, no recomputed statistics, no leak.

A relation version is its immutable segments plus a delete vector, and
each segment indexes its own rows once (``Segment.memo``): a write's new
version shares the segments the segment policy kept and everything built
over them.  These tests pin that down by counting, never by timing: the
per-segment index builders (``HashIndex._build``, ``SortedIndex._build``)
are wrapped to record every row they index, and ``ColumnStats.__init__``
to count statistics, and a mixed write/read sequence over an indexed
relation must index nothing while it writes, index every written row on
the first use of each index, index again only the few rows a tier merge
rewrites - never a row of the base segments - and recompute
statistics only once the writes cross the analyze threshold, and on
``refresh_statistics``.  The per-column all-⊤ fact the translation reads,
and the join probe tables, are counted the same way, and so are the plans
built after a warm-up.  The last test counts superseded relation versions
still alive after writes through a server.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

import repro.relational.relation as relation_module
from repro.core.descriptor import TOP_VARIABLE
from repro.core.translate import explain_query
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational import Relation, plan_cache_stats, refresh_statistics
from repro.relational.relation import Segment
from repro.relational.index import HashIndex, SortedIndex, built_indexes_on, index_defs_on
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


class Built:
    """What the wrapped constructors saw: ``indexed`` counts every
    ``(kind, positions, row)`` an index builder indexed, by row identity."""

    def __init__(self):
        self.indexed: Counter = Counter()
        self.stats = 0

    def rows(self) -> int:
        return sum(self.indexed.values())

    def twice(self) -> int:
        return sum(1 for count in self.indexed.values() if count > 1)

    def reset(self) -> None:
        self.indexed.clear()
        self.stats = 0


@pytest.fixture
def built(monkeypatch):
    """Record the rows the per-segment index builders index, and count
    column statistics computed from scratch."""
    seen = Built()
    for cls in (HashIndex, SortedIndex):
        real = cls._build

        def counted(rows, positions, real=real, kind=cls.kind):
            seen.indexed.update((kind, positions, id(row)) for row in rows)
            return real(rows, positions)

        monkeypatch.setattr(cls, "_build", staticmethod(counted))
    real_stats = ColumnStats.__init__

    def counting_stats(self, *args, **kwargs):
        seen.stats += 1
        return real_stats(self, *args, **kwargs)

    monkeypatch.setattr(ColumnStats, "__init__", counting_stats)
    return seen


def _lookup(udb, key):
    return set(map(tuple, execute_sql(LOOKUP.format(key=key), udb).rows))


def _written(built, udb, sql):
    """Run a write that matches no row by a query: it builds no index."""
    before = built.rows()
    execute_sql(sql, udb)
    assert built.rows() == before


def _first_use(udb):
    """Use every index of every partition: the structures no read built
    yet are built now."""
    for part in udb.partitions("events"):
        for index in built_indexes_on(part.relation):
            index.runs()


def test_writes_and_the_reads_after_them_index_no_base_row_again(built):
    udb = _events(2000)
    # set-up: a tid hash index and a sorted value index per partition
    assert built.rows() == 3 * 2 * 2000 and built.twice() == 0
    assert built.stats == 3 * 4
    built.reset()
    base = {
        id(row)
        for part in udb.partitions("events")
        for segment in part.relation.segments()
        for row in segment.rows
    }
    # warm-up: the lookup's plan and the UPDATE / DELETE matching plans
    assert _lookup(udb, 1) == {("k1", 1)}
    execute_sql("update events set kind = 'k1' where id = 1", udb)
    execute_sql("delete from events where id = 99999", udb)
    misses = plan_cache_stats()["misses"]

    _written(built, udb, "insert into events values (5000, 'new', 1)")
    assert _lookup(udb, 5000) == {("new", 1)}
    batch = ", ".join(f"({6000 + i}, 'batch', {i})" for i in range(64))
    _written(built, udb, f"insert into events values {batch}")
    assert _lookup(udb, 6063) == {("batch", 63)}
    execute_sql("update events set kind = 'upd' where id = 7", udb)
    assert _lookup(udb, 7) == {("upd", 7)}
    execute_sql("delete from events where id = 8", udb)
    assert _lookup(udb, 8) == set()
    session = udb.session()
    session.execute("begin")
    session.execute("insert into events values (5001, 'txn', 2)")
    session.execute("update events set score = 99 where id = 9")
    before = built.rows()
    session.execute("commit")
    assert built.rows() == before  # publishing builds nothing either
    assert _lookup(udb, 5001) == {("txn", 2)}
    assert _lookup(udb, 9) == {("k4", 99)}
    _first_use(udb)
    # each written row was indexed by its partition's two indexes, and
    # again by each tier merge it joined: the tiers beside the 2 000-row
    # bases stay under 70 rows, so that is a few rows, at most twice more;
    # no row of the bases was indexed again
    written = 3 * (1 + 64 + 1) + 1 + 1 + 1  # inserts, and the rows updated
    assert not base & {row for _, _, row in built.indexed}
    assert len(built.indexed) == 2 * written
    assert max(built.indexed.values()) <= 3
    assert built.rows() - len(built.indexed) <= 2 * 10
    assert built.stats == 0

    # every write left its partitions within the segment policy, so a
    # VACUUM finds nothing to do and indexes nothing
    built.reset()
    assert not execute_sql("vacuum events", udb).changed
    assert built.rows() == 0
    _written(built, udb, "insert into events values (5002, 'late', 3)")
    assert _lookup(udb, 5002) == {("late", 3)}
    assert _lookup(udb, 7) == {("upd", 7)}
    _first_use(udb)
    # its 3 written rows, one per partition, were each indexed by both of
    # their partition's indexes; a merge they joined re-indexed a few
    # written rows besides, none twice, and no row of the bases
    parts = [part.relation for part in udb.partitions("events")]
    tid = parts[0].schema.resolve(tid_column("events"))
    (late_tid,) = {row[tid] for row in parts[0] if row[-1] == 5002}
    late = {id(row) for relation in parts for row in relation if row[tid] == late_tid}
    assert len(late) == 3
    assert {(kind, row) for kind, _, row in built.indexed if row in late} == {
        (kind, row) for kind in ("hash", "sorted") for row in late
    }
    assert built.twice() == 0 and built.rows() - 2 * 3 <= 2 * 20
    assert not base & {row for _, _, row in built.indexed}

    # no plan is built again: the writes kept every plan's facts
    assert plan_cache_stats()["misses"] - misses == 0
    assert built.stats == 0
    # every partition still answers through its indexes, all built, once
    for part in udb.partitions("events"):
        assert len(built_indexes_on(part.relation)) == len(index_defs_on(part.relation)) == 2
    before = built.rows()
    _first_use(udb)
    assert built.rows() == before


def test_statistics_recompute_once_past_the_analyze_threshold(built):
    udb = _events(2000)
    built.reset()
    crossing = int(ANALYZE_THRESHOLD + ANALYZE_SCALE_FACTOR * 2000) + 1
    batch = ", ".join(f"({9000 + i}, 'bulk', 5)" for i in range(crossing))
    execute_sql(f"insert into events values {batch}", udb)

    def workload():
        assert _lookup(udb, 9000) == {("bulk", 5)}
        execute_sql("update events set score = 6 where id = 9001", udb)
        assert _lookup(udb, 9001) == {("bulk", 6)}

    workload()
    recomputed = built.stats
    assert 0 < recomputed <= 3 * 4  # each column the plans ask for, once
    workload()
    assert built.stats == recomputed  # ... and not again

    for part in udb.partitions("events"):
        refresh_statistics(part.relation)
    workload()
    assert built.stats == 2 * recomputed
    assert built.twice() == 0


def test_a_certain_insert_counts_the_all_top_fact_over_its_own_rows(monkeypatch):
    """The translation reads each partition's "descriptor slot 1 is all-⊤"
    fact; a segment counts it once over its own rows, so the read after a
    certain INSERT counts the appended row alone."""
    udb = _events(2000)
    assert _lookup(udb, 7) == {("k2", 7)}  # counts the base segments, once
    counted = []
    real = relation_module.countOf

    def counting(iterable, value):
        values = list(iterable)
        counted.append((value, len(values)))
        return real(values, value)

    monkeypatch.setattr(relation_module, "countOf", counting)
    execute_sql("insert into events values (5000, 'new', 1)", udb)
    assert _lookup(udb, 5000) == {("new", 1)}
    assert (TOP_VARIABLE, 1) in counted
    assert {length for _, length in counted} == {1}  # never a base segment
    for part in udb.partitions("events"):
        assert part.relation.column_all_equal(0, TOP_VARIABLE)
    counted.clear()
    assert Relation(["c1"], [(TOP_VARIABLE,)] * 3).column_all_equal(0, TOP_VARIABLE)
    assert counted == [(TOP_VARIABLE, 3)]  # what a from-scratch fact costs


def test_no_probe_table_is_built_again_over_base_rows(monkeypatch):
    """A key join probes the inner side's sorted value index through its
    probe tables, the merges the tid indexes' ones; after an INSERT the
    base segments' tables serve on, so the join after it builds tables
    over the appended rows alone - and finds the inserted row."""
    udb = _events(2000)
    assert "idx_u_events_id_id" in explain_query(parse(KEY_JOIN.format(key=7)), udb)
    assert execute_sql(KEY_JOIN.format(key=7), udb).rows == [("k2",)]  # builds them
    built = []
    for cls in (HashIndex, SortedIndex):
        real = cls._probe_table

        def counted(rows, structure, real=real):
            built.append(len(rows))
            return real(rows, structure)

        monkeypatch.setattr(cls, "_probe_table", staticmethod(counted))

    execute_sql("insert into events values (5000, 'new', 5000)", udb)
    assert execute_sql(KEY_JOIN.format(key=5000), udb).rows == [("new",)]
    assert built and set(built) == {1}
    built.clear()
    assert execute_sql(KEY_JOIN.format(key=4), udb).rows == [("k4",)]
    assert built == []


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

    def big(kind):
        if collector:
            gc.collect()
        return sum(1 for o in gc.get_objects() if isinstance(o, kind) and len(o.rows) > 4000)

    before = big(Relation)
    bases = big(Segment)
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
        assert big(Relation) <= before + 2 * len(ATTRIBUTES)
        # a delete leaves dead rows the joins' probes step over, and a
        # VACUUM finds the writes left nothing to merge: the bases stay
        session.execute("delete from events where id = 3")
        assert session.execute_prepared("lookup", 4).rows == [("k4", 4)]
        session.execute("vacuum events")
        assert session.execute_prepared("lookup", 5).rows == [("k0", 5)]
        assert big(Segment) == bases  # the old bases, kept by the policy
    finally:
        gc.enable()
        server.close()
