"""A tier merge builds its segment's structures while another thread reads the old version.

A write that merges size tiers builds the merged segment's hash tables,
sorted arrays and probe tables afresh; the segments it replaced, and
everything built over them, are never changed, so a version pinned before
the merge keeps answering from them.  Here one thread probes and
range-scans a version pinned before the merge while another runs the
merging write - held inside its first index build until the reader is
between two passes - and then probes the new version: every answer on
both sides must equal a fresh build over that version's rows.
"""

from __future__ import annotations

import sys
import threading

from repro.relational import Relation
from repro.relational.index import HashIndex, SortedIndex, built_indexes_on, ensure_index
from tests.conftest import assert_tiered

THREADS = 2
SCHEMA = ["tid", "kind", "score"]
KEYS = list(range(-1, 60))
BOUNDS = [(None, 10), (5, 25), (40, None), (None, None)]


def _pinned():
    """A version with its segments' tables built, three tiers and dead
    rows in the base: the next write of a hundred rows merges them all."""
    base = Relation(SCHEMA, [(i, f"k{i % 3}", i % 50) for i in range(400)])
    ensure_index(base, ["tid"], kind="hash", name="by_tid")
    ensure_index(base, ["score"], kind="sorted", name="by_score")
    ensure_index(base, ["kind"], kind="hash", name="by_kind")
    grown = base.with_appended([(i, f"k{i % 3}", i % 50) for i in range(500, 580)])
    grown = grown.with_appended([(7, "k1", 7), (1000, "new", 55)])
    # dead rows of kind k0 only, under the dead share
    pinned = grown.with_deleted([3, 9, 12, 399])
    assert [len(segment.rows) for segment in pinned.segments()] == [400, 80, 2]
    for index in built_indexes_on(pinned):
        index.probe_lookup()(1)
    return pinned


MERGING = [(i, f"k{i % 3}", i % 50) for i in range(600, 700)]


def _answers(relation):
    """Point probes of the tid index, point and range lookups of the score
    index and point lookups of the kind index, each as a sorted list of
    rows."""
    by_name = {index.name: index for index in built_indexes_on(relation)}
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


def test_a_tier_merge_builds_while_a_pinned_version_is_read(monkeypatch):
    pinned = _pinned()
    expected_pinned = _fresh(pinned)
    assert _answers(pinned) == expected_pinned
    between = threading.Barrier(THREADS, timeout=5)
    for cls in (HashIndex, SortedIndex):
        real = cls._build

        def held(rows, positions, real=real):
            try:
                between.wait()  # the reader is between two passes
            except threading.BrokenBarrierError:
                pass
            return real(rows, positions)

        monkeypatch.setattr(cls, "_build", staticmethod(held))
    seen = {}
    failures = []

    def read():
        try:
            passes = [_answers(pinned)]
            for _ in range(3):  # the merge's three builds, one per index
                try:
                    between.wait()
                except threading.BrokenBarrierError:
                    pass
                passes.append(_answers(pinned))
            seen["pinned"] = passes
        except Exception as error:  # reported below, on the main thread
            failures.append(error)

    def write():
        try:
            merged = pinned.with_appended(MERGING)
            seen["merged"] = (merged, _answers(merged))
        except Exception as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read), threading.Thread(target=write)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert seen["pinned"] == [expected_pinned] * 4
    merged, answers = seen["merged"]
    # the three tiers and the new rows merged into one segment, dead rows gone
    assert len(merged.segments()) == 1 and merged.deleted_count() == 0
    assert merged.compacted() is merged
    assert_tiered(merged)
    assert sorted(merged.rows) == sorted([*pinned.rows, *MERGING])
    assert answers == _fresh(merged)
    assert _answers(pinned) == expected_pinned
