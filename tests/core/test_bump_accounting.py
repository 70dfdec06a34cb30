"""Exact publish accounting for the batched write path.

A 40-row batched ``INSERT`` (or a committed multi-statement
transaction, or a ``copy_rows`` bulk load) publishes *exactly one*
catalog swap — not one per row, not one per statement — and reaches the
plan cache not at all: the publish drops no entry and computes no
planning facts, and the cached plan over the written relation stays
cached, hits, and answers the new version.  Its next lookup computes the
facts of the new versions it reads, once each, and of nothing else.  The
computations are observed directly (by wrapping the plan cache's
``_compute_facts``) and cross-checked against the two externally
visible ledgers: ``catalog_version`` deltas and ``plan_cache_stats()``.
The batches stay under the analyze threshold of a 3-row relation (50
rows written): past it the statistics are new and the plan re-plans.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core import execute_query
from repro.core.descriptor import Descriptor
from repro.core.query import Poss, Rel, UProject
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational import plan_cache_stats, plancache
from repro.server.session import Session
from repro.sql import execute_sql

from tests.conftest import assert_tiered, without_indexes


@contextmanager
def counting_fills(monkeypatch):
    """Wrap the plan cache's facts computation; yield the log of the
    relation versions it computed facts for."""
    calls = []
    real = plancache._compute_facts

    def counted(relation, probes):
        calls.append(relation)
        return real(relation, probes)

    monkeypatch.setattr(plancache, "_compute_facts", counted)
    try:
        yield calls
    finally:
        monkeypatch.setattr(plancache, "_compute_facts", real)


def _only_new_versions(udb, fills):
    """Each fill was of a live ``r`` version, and none was filled twice."""
    live = {id(part.relation) for part in udb.partitions("r")}
    assert {id(relation) for relation in fills} <= live
    assert len(fills) == len({id(relation) for relation in fills})


def _two_partition_udb() -> UDatabase:
    """``r`` split vertically into an ``id`` and a ``type`` partition,
    plus an unrelated single-partition ``s`` whose plans must survive."""
    udb = UDatabase()
    initial = [(Descriptor(), i, (i,)) for i in range(3)]
    udb.add_relation(
        "r",
        ["id", "type"],
        [
            URelation.build(initial, tid_column("r"), ["id"]),
            URelation.build(
                [(Descriptor(), i, (f"t{i}",)) for i in range(3)],
                tid_column("r"),
                ["type"],
            ),
        ],
    )
    udb.add_relation(
        "s",
        ["k"],
        [URelation.build([(Descriptor(), 0, (0,))], tid_column("s"), ["k"])],
    )
    return without_indexes(udb)


def q_r():
    return Poss(UProject(Rel("r"), ["id", "type"]))


def q_s():
    return Poss(UProject(Rel("s"), ["k"]))


def _warm(udb, query):
    """Run twice; the second run must be planning-free (a cache hit)."""
    answer = execute_query(query, udb)
    misses = plan_cache_stats()["misses"]
    assert execute_query(query, udb) == answer
    assert plan_cache_stats()["misses"] == misses, "second run re-planned"
    return answer


def _rows(udb):
    return set(map(tuple, execute_sql("possible (select id, type from r)", udb).rows))


def _still_hits(udb, query, rows):
    """The cached plan serves the new version: a hit with ``rows`` rows."""
    before = plan_cache_stats()
    assert len(execute_query(query, udb)) == rows
    after = plan_cache_stats()
    assert after["hits"] == before["hits"] + 1
    assert (after["misses"], after["invalidations"]) == (
        before["misses"],
        before["invalidations"],
    )


def test_batched_insert_publishes_once_and_keeps_the_plans(monkeypatch):
    udb = _two_partition_udb()
    _warm(udb, q_r())
    survivor = _warm(udb, q_s())
    before = udb.catalog_version
    cached = plan_cache_stats()

    values = ", ".join(f"({100 + i}, 'bulk')" for i in range(40))
    with counting_fills(monkeypatch) as fills:
        result = execute_sql(f"insert into r values {values}", udb)

    assert result.count == 40
    # one publish (certain rows: no world-table bumps), no facts, no eviction
    assert fills == []
    assert udb.catalog_version - before == 1
    after = plan_cache_stats()
    assert (after["invalidations"], after["size"]) == (
        cached["invalidations"],
        cached["size"],
    )
    # the written relation's plan answers the new version from the cache
    # after reading both new versions' facts, and the unrelated relation's
    # plan is untouched and reads none
    with counting_fills(monkeypatch) as fills:
        _still_hits(udb, q_r(), 43)
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_s(), udb) == survivor
        assert plan_cache_stats()["hits"] == hits + 1
    assert len(fills) == 2
    _only_new_versions(udb, fills)
    assert len(_rows(udb)) == 43


def test_copy_rows_publishes_once(monkeypatch):
    udb = _two_partition_udb()
    _warm(udb, q_r())
    before = udb.catalog_version
    newest = {
        i: max(s.segment_id for s in part.relation.segments())
        for i, part in enumerate(udb.partitions("r"))
    }

    with counting_fills(monkeypatch) as fills:
        result = udb.copy_rows("r", [(200 + i, "copy") for i in range(40)])

    assert result.count == 40
    assert fills == []
    assert udb.catalog_version - before == 1
    # the whole batch lands as ONE appended segment per partition: ids move
    # by two at most (the batch's, and the tier the policy merged it into)
    for i, part in enumerate(udb.partitions("r")):
        assert 0 < max(s.segment_id for s in part.relation.segments()) - newest[i] <= 2
        assert_tiered(part.relation)
    with counting_fills(monkeypatch) as fills:
        _still_hits(udb, q_r(), 43)
    assert len(fills) == 2
    _only_new_versions(udb, fills)


def test_committed_txn_publishes_once_at_commit(monkeypatch):
    udb = _two_partition_udb()
    _warm(udb, q_r())
    session = Session(udb)
    before = udb.catalog_version
    invalidations = plan_cache_stats()["invalidations"]

    session.execute("begin")
    for i in range(40):
        session.execute(f"insert into r values ({300 + i}, 'txn')")
    session.execute("update r set type = 'staged' where id = 300")
    # nothing published yet: zero catalog movement
    assert udb.catalog_version == before
    with counting_fills(monkeypatch) as fills:
        session.execute("commit")
        assert fills == []

        # 41 statements, one publish of both partitions, nothing evicted
        assert udb.catalog_version - before == 1
        assert plan_cache_stats()["invalidations"] == invalidations
        _still_hits(udb, q_r(), 43)
    # the update's matching query may have read a staged version's facts
    # already; the lookup read the rest, and only the published versions
    _only_new_versions(udb, fills)
    rows = _rows(udb)
    assert len(rows) == 43
    assert (300, "staged") in rows


def test_rolled_back_txn_bumps_nothing(monkeypatch):
    udb = _two_partition_udb()
    baseline = _warm(udb, q_r())
    session = Session(udb)
    before = udb.catalog_version

    with counting_fills(monkeypatch) as fills:
        session.execute("begin")
        for i in range(20):
            session.execute(f"insert into r values ({400 + i}, 'doomed')")
        session.execute("rollback")

        assert udb.catalog_version == before
        # the cached plan is still warm and still right, over the versions
        # whose facts it already knows
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_r(), udb) == baseline
        assert plan_cache_stats()["hits"] == hits + 1
    assert fills == []
