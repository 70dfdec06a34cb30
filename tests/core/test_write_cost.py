"""A one-row write costs the same at 10 000 and at 200 000 rows.

A partition version is its immutable segments plus a delete vector, so an
INSERT adds one segment and indexes its row alone, and a DELETE adds one
ordinal to the vector; neither copies the rows, the column vectors or an
index of the partition.  Measured by allocation (``tracemalloc``, which
counts what Python allocates and not how long it takes), so the check is
deterministic: over a partition with its tid hash index and a sorted value
index built, a one-row INSERT and a one-row DELETE, each followed by a
point lookup through the tid index, allocate within 2x of each other at
the two sizes.

The segment policy is counted, not timed, either: a thousand one-row
appends without a VACUUM leave a version within the segment bound (a
read walks O(log n) segments), and a few writes plus the VACUUM after
them index and build probe tables over the same rows at both sizes
(``_build``, ``_probe_table``): a merge builds the segments it makes,
never the base it leaves alone.
"""

from __future__ import annotations

import tracemalloc

from repro.core.descriptor import Descriptor
from repro.core.urelation import URelation, tid_column
from repro.relational.index import HashIndex, SortedIndex, built_indexes_on, ensure_index
from tests.conftest import assert_tiered, segment_bound

SIZES = (10_000, 200_000)
TID = tid_column("events")


def _partition(rows: int):
    """The ``score`` partition of ``events``, its two indexes built."""
    part = URelation.build(
        ((Descriptor(), i, (i % 100,)) for i in range(rows)), TID, ["score"]
    )
    relation = part.relation
    ensure_index(relation, [TID], kind="hash", name="idx_u_events_score_tid")
    ensure_index(relation, ["score"], kind="sorted", name="idx_u_events_score_score")
    return relation


def _tid_index(relation):
    (index,) = [i for i in built_indexes_on(relation) if i.kind == "hash"]
    return index


def _allocated(write, relation, key):
    """Peak bytes allocated by ``write(relation)`` plus a point lookup of
    ``key`` on the version it returns."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        successor = write(relation)
        found = _tid_index(successor).lookup(key)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, found


def _insert(relation):
    row = list(relation.rows[0])
    row[relation.schema.resolve(TID)] = -1
    return relation.with_appended([tuple(row)])


def _delete(relation):
    return relation.with_deleted([7])


def test_a_one_row_write_allocates_alike_at_10k_and_200k_rows():
    inserted = []
    deleted = []
    for rows in SIZES:
        relation = _partition(rows)
        bytes_in, found = _allocated(_insert, relation, -1)
        assert len(found) == 1
        inserted.append(bytes_in)
        bytes_out, found = _allocated(_delete, relation, 7)
        assert list(found) == []
        deleted.append(bytes_out)
    assert max(inserted) <= 2 * min(inserted), inserted
    assert max(deleted) <= 2 * min(deleted), deleted


def _work(monkeypatch, rows: int):
    """Rows indexed and probe-tabled by a few writes (10 one-row appends,
    3 deletes), a VACUUM and a lookup after them, over ``rows`` rows."""
    relation = _partition(rows)
    for index in built_indexes_on(relation):
        index.probe_lookup()  # the base's probe tables, built before
    touched = []

    def wrap(cls, name, size):
        real = getattr(cls, name)

        def counted(*args):
            touched.append(size(*args))
            return real(*args)

        monkeypatch.setattr(cls, name, staticmethod(counted))

    for cls in (HashIndex, SortedIndex):
        wrap(cls, "_build", lambda rows, positions: len(rows))
        wrap(cls, "_probe_table", lambda rows, structure: len(rows))
    written = relation
    for _ in range(10):
        written = written.with_appended([relation.rows[3]])
    written = written.with_deleted([5, 9, 11])
    vacuumed = written.compacted()
    assert len(_tid_index(vacuumed).lookup(3)) == 11
    _tid_index(vacuumed).probe_lookup()(3)
    monkeypatch.undo()
    assert vacuumed is written  # the writes left nothing for it to do
    assert len(vacuumed) == rows + 7
    assert_tiered(vacuumed)
    return sum(touched)


def test_a_few_writes_and_a_vacuum_touch_alike_at_10k_and_200k_rows(monkeypatch):
    work = [_work(monkeypatch, rows) for rows in SIZES]
    assert work[0] == work[1] and 0 < work[0] <= 100, work


def test_a_thousand_one_row_appends_stay_within_the_segment_bound():
    relation = _partition(10_000)
    for key in range(1000):
        row = list(relation.rows[0])
        row[relation.schema.resolve(TID)] = -1 - key
        relation = relation.with_appended([tuple(row)])
    assert len(relation) == 11_000
    assert_tiered(relation)
    assert len(relation.segments()) <= segment_bound(len(relation))
    assert [len(_tid_index(relation).lookup(-1 - key)) for key in (0, 500, 999)] == [1, 1, 1]
