"""Two threads make the first probes of fresh index versions at once.

A join's probe table is built per segment on the first probe and then held
on the segment (``Segment.memo``), a memo every thread running a cached
plan over any version holding the segment shares.  Threads racing on a
first use each build an equal value and the first one stored stays, so a
filled entry never changes.  Here two threads run cached plans whose
segments have built nothing yet, held at the probe-table build until both
have reached it: both answers must be right, every table must equal a
fresh build, and every memo entry must be the one value both threads read.
"""

from __future__ import annotations

import sys
import threading

from repro.core import execute_query
from repro.core.translate import explain_query
from repro.relational import plan_cache_stats
from repro.relational.index import HashIndex, SortedIndex, _segment_probe_table, _structure
from repro.relational.relation import Segment
from repro.sql import execute_sql, parse
from tests.core.test_write_work_count import KEY_JOIN, LOOKUP, _events

THREADS = 2


def _race(monkeypatch, queries, udb):
    """Run each of ``queries`` on ``THREADS`` threads at once, held at the
    first probe-table build; -> (answers per thread, memo reads as
    ``(key, id(value))`` per thread)."""
    together = threading.Barrier(THREADS, timeout=0.5)
    for cls in (HashIndex, SortedIndex):
        real = cls._probe_table

        def racing(rows, structure, real=real):
            try:
                together.wait()  # the other thread is at a first probe too
            except threading.BrokenBarrierError:
                pass  # it found the table built: the race went one way
            return real(rows, structure)

        monkeypatch.setattr(cls, "_probe_table", staticmethod(racing))
    reads = {}
    real_memo = Segment.memo

    def memo(segment, build, *args):
        value = real_memo(segment, build, *args)
        reads.setdefault(threading.get_ident(), set()).add(
            ((id(segment), build, *args), id(value))
        )
        return value

    monkeypatch.setattr(Segment, "memo", memo)
    answers = {}
    failures = []

    def run():
        try:
            answers[threading.get_ident()] = [
                execute_query(query, udb).rows for query in queries
            ]
        except Exception as error:  # reported below, on the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    return list(answers.values()), list(reads.values())


def _one_value_per_entry(reads):
    """Every memo entry both threads read is one and the same object."""
    seen = {}
    for per_thread in reads:
        for key, value in per_thread:
            assert seen.setdefault(key, value) == value, key


def _tables_like_fresh(udb):
    tables = 0
    for part in udb.partitions("events"):
        for segment in part.relation.segments():
            for (build, *args), value in list(segment._memo.items()):
                if build is _segment_probe_table:
                    kind, positions = args
                    cls = HashIndex if kind == "hash" else SortedIndex
                    structure = cls._build(segment.rows, positions)
                    assert value == cls._probe_table(segment.rows, structure)
                    assert segment._memo[(_structure, kind, positions)] is not None
                    tables += 1
    return tables


def test_two_first_probes_through_one_cached_plan(monkeypatch):
    udb = _events(500)
    query = parse(KEY_JOIN.format(key=7))
    explain_query(query, udb)  # caches the plan; no join has probed yet
    misses = plan_cache_stats()["misses"]
    assert _tables_like_fresh(udb) == 0

    answers, reads = _race(monkeypatch, [query], udb)
    assert answers == [[[("k2",)]]] * THREADS
    assert plan_cache_stats()["misses"] == misses  # both ran the cached plan
    _one_value_per_entry(reads)
    assert _tables_like_fresh(udb) >= 3  # the id index's and two tid ones


def test_first_lookup_and_probe_of_a_fresh_multi_segment_version(monkeypatch):
    """A write leaves each partition two segments, the new one with
    nothing but its index structures built: the first point lookup and the
    first join probe over it race from two threads."""
    udb = _events(500)
    lookup, join = parse(LOOKUP.format(key=5000)), parse(KEY_JOIN.format(key=5000))
    explain_query(lookup, udb)
    explain_query(join, udb)
    execute_sql("insert into events values (5000, 'new', 5000)", udb)
    assert all(len(p.relation.segments()) == 2 for p in udb.partitions("events"))
    misses = plan_cache_stats()["misses"]

    answers, reads = _race(monkeypatch, [lookup, join], udb)
    assert answers == [[[("new", 5000)], [("new",)]]] * THREADS
    assert plan_cache_stats()["misses"] == misses
    _one_value_per_entry(reads)
    assert _tables_like_fresh(udb) >= 6  # base and new segment, three indexes
