"""Two threads on one prepared ``conf`` statement share one engine memo.

The group memo lives on the world table's :class:`ConfidenceEngine`, so
threads that run one cached plan at once read and fill the same dicts:
the first requests miss and store, the rest hit.  Every answer must be the
one a single thread gets on an identical database of its own.
"""

from __future__ import annotations

import sys
import threading

from repro.core import confidence_engine
from repro.sql import prepare
from repro.ugen import generate_uncertain

SQL = "conf (select l.shipmode from lineitem l where l.quantity < $1)"
BOUNDS = (5, 10, 20)
ROUNDS = 10  # of the three bounds, per thread


def _udb():
    udb = generate_uncertain(scale=0.001, x=0.05, z=0.25, seed=1).udb
    udb.build_indexes()
    return udb


def test_two_threads_with_interleaved_bounds_answer_as_one_does():
    single = prepare(SQL, _udb())
    expected = {bound: single.run(bound).rows for bound in BOUNDS}
    assert all(expected.values())

    udb = _udb()  # a cold engine of its own: the threads race on the misses
    stmt = prepare(SQL, udb)
    together = threading.Barrier(2, timeout=30)
    wrong, errors = [], []

    def client(offset):
        try:
            together.wait()
            for i in range(ROUNDS * len(BOUNDS)):
                bound = BOUNDS[(offset + i) % len(BOUNDS)]
                answer = stmt.run(bound)
                if answer.rows != expected[bound] or answer.conf["approx_groups"]:
                    wrong.append((bound, answer.rows, answer.conf))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    clients = [threading.Thread(target=client, args=(n,)) for n in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clients)
    assert not errors and not wrong, (errors, wrong[:1])
    # one entry per (bound, group), however the two threads raced to it
    stats = confidence_engine(udb.world_table).stats()
    assert stats["cached_encoded_groups"] == sum(map(len, expected.values()))
