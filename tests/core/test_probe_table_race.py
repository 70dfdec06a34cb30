"""Two threads make the first join probe of fresh index versions at once.

A join's probe table (``Index.mixed_table``) is built on the first probe
and then held on the index, a memo every thread running a cached plan
shares.  Here two threads run one cached plan whose indexes have no table
yet, held at the build until both have reached it: both answers must be
right, and each index must end with a table equal to a fresh build,
whether one thread built it or both did.
"""

from __future__ import annotations

import sys
import threading

from repro.core import execute_query
from repro.core.translate import explain_query
from repro.relational import plan_cache_stats
from repro.relational.index import HashIndex, SortedIndex
from repro.sql import parse
from tests.core.test_write_work_count import KEY_JOIN, _events

THREADS = 2


def test_two_first_probes_through_one_cached_plan(monkeypatch):
    udb = _events(500)
    query = parse(KEY_JOIN.format(key=7))
    expected = [("k2",)]
    explain_query(query, udb)  # caches the plan; no join has probed yet
    misses = plan_cache_stats()["misses"]
    indexes = [index for part in udb.partitions("events") for index in part.relation._indexes]
    assert all(index._mixed is None for index in indexes)

    together = threading.Barrier(THREADS, timeout=2)
    builds = []
    fresh = {cls: cls._probe_table for cls in (HashIndex, SortedIndex)}
    for cls, real in fresh.items():

        def racing(self, real=real):
            try:
                together.wait()  # the other thread is at a first probe too
            except threading.BrokenBarrierError:
                pass  # it found the table built: the race went one way
            builds.append(self)
            return real(self)

        monkeypatch.setattr(cls, "_probe_table", racing)

    answers = []
    failures = []

    def run():
        try:
            answers.append(execute_query(query, udb).rows)
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
    assert answers == [expected] * THREADS
    assert plan_cache_stats()["misses"] == misses  # both ran the cached plan

    probed = [index for index in indexes if index._mixed is not None]
    assert {index.name for index in probed} >= {"idx_u_events_id_id", "idx_u_events_kind_tid"}
    for index in probed:
        assert 1 <= builds.count(index) <= THREADS
        assert index._mixed == fresh[type(index)](index)
