"""A VACUUM edits its new base's structures while another thread reads the old.

A compaction builds its new base segment's hash tables, sorted arrays and
probe tables by copying the old base's and editing the copies; bucket
lists it changes are new lists, never the shared ones.  Here one thread
probes and range-scans a version pinned before the VACUUM while another
runs the VACUUM - held inside its edits until the reader is between two
passes - and then probes the new version: every answer on both sides
must equal a fresh build over that version's rows.
"""

from __future__ import annotations

import sys
import threading

from repro.relational import Relation
from repro.relational.index import HashIndex, SortedIndex, ensure_index

THREADS = 2
SCHEMA = ["tid", "kind", "score"]
KEYS = list(range(-1, 60))
BOUNDS = [(None, 10), (5, 25), (40, None), (None, None)]


def _pinned():
    """A version with its base's tables built, two appended segments and
    dead rows in the base: what a VACUUM finds."""
    base = Relation(SCHEMA, [(i, f"k{i % 3}", i % 50) for i in range(400)])
    ensure_index(base, ["tid"], kind="hash", name="by_tid")
    ensure_index(base, ["score"], kind="sorted", name="by_score")
    ensure_index(base, ["kind"], kind="hash", name="by_kind")
    for index in base._indexes:
        index.probe_lookup()(1)
    grown = base.with_appended([(7, "k1", 7), (1000, "new", 55)])
    grown = grown.with_appended([(i, f"k{i % 3}", i % 50) for i in range(500, 520)])
    # dead rows of kind k0 only: k1's and k2's shared buckets only grow
    return grown.with_deleted([3, 9, 12, 399])


def _answers(relation):
    """Point probes of the tid index, point and range lookups of the score
    index and point lookups of the kind index, each as a sorted list of
    rows."""
    by_name = {index.name: index for index in relation._indexes}
    probe = by_name["by_tid"].probe_lookup()
    probed = [probe(key) for key in KEYS]
    by_score = by_name["by_score"]
    return (
        [[] if p is None else sorted(p) if type(p) is list else [p] for p in probed],
        [sorted(by_score.lookup(key)) for key in KEYS],
        [sorted(by_score.range(low, high)) for low, high in BOUNDS],
        [sorted(by_name["by_kind"].lookup(f"k{k}")) for k in range(3)],
    )


def _fresh(relation):
    """The answers of indexes built from scratch over ``relation``'s rows."""
    fresh = Relation(SCHEMA, relation.rows)
    ensure_index(fresh, ["tid"], kind="hash", name="by_tid")
    ensure_index(fresh, ["score"], kind="sorted", name="by_score")
    ensure_index(fresh, ["kind"], kind="hash", name="by_kind")
    return _answers(fresh)


def test_vacuum_edits_while_a_pinned_version_is_read(monkeypatch):
    pinned = _pinned()
    expected_pinned = _fresh(pinned)
    assert _answers(pinned) == expected_pinned
    between = threading.Barrier(THREADS, timeout=5)
    for cls in (HashIndex, SortedIndex):
        real = cls._edit

        def held(structure, removed, placed, positions, real=real):
            try:
                between.wait()  # the reader is between two passes
            except threading.BrokenBarrierError:
                pass
            return real(structure, removed, placed, positions)

        monkeypatch.setattr(cls, "_edit", staticmethod(held))
    seen = {}
    failures = []

    def read():
        try:
            passes = [_answers(pinned)]
            for _ in range(3):  # the VACUUM's three edits, one per index
                try:
                    between.wait()
                except threading.BrokenBarrierError:
                    pass
                passes.append(_answers(pinned))
            seen["pinned"] = passes
        except Exception as error:  # reported below, on the main thread
            failures.append(error)

    def vacuum():
        try:
            vacuumed = pinned.compacted()
            seen["vacuumed"] = (vacuumed, _answers(vacuumed))
        except Exception as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read), threading.Thread(target=vacuum)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert seen["pinned"] == [expected_pinned] * 4
    vacuumed, answers = seen["vacuumed"]
    assert len(vacuumed.segments()) == 1 and vacuumed == pinned
    assert answers == _fresh(vacuumed)
    assert _answers(pinned) == expected_pinned
