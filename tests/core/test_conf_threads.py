"""Two threads on one prepared ``conf`` statement share one engine memo.

The group memo lives on the world table's :class:`ConfidenceEngine`, so
threads that run one cached plan at once read and fill the same dicts:
the first requests miss and store, the rest hit.  Every answer must be the
one a single thread gets on an identical database of its own.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import confidence_engine
from repro.sql import prepare
from repro.ugen import generate_uncertain

#: The two served ``conf`` shapes: few groups over long lineages, and many
#: small groups.
SHAPES = {
    "biglineage": ("conf (select l.shipmode from lineitem l where l.quantity < $1)", (5, 10, 20)),
    "manygroups": (
        "conf (select o.orderkey from orders o where o.totalprice > $1)",
        (300000, 200000, 150000),
    ),
}
ROUNDS = 10  # of the bounds, per thread


def _udb():
    udb = generate_uncertain(scale=0.001, x=0.05, z=0.25, seed=1).udb
    udb.build_indexes()
    return udb


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_two_threads_with_interleaved_bounds_answer_as_one_does(shape):
    sql, bounds = SHAPES[shape]
    alone = _udb()
    single = prepare(sql, alone)
    expected = {bound: single.run(bound).rows for bound in bounds}
    assert all(expected.values())
    # certain groups all share the one {⊤} key, so a single thread stores
    # one entry per distinct encoding set, not one per (bound, group)
    stored = confidence_engine(alone.world_table).stats()["cached_encoded_groups"]

    udb = _udb()  # a cold engine of its own: the threads race on the misses
    stmt = prepare(sql, udb)
    together = threading.Barrier(2, timeout=30)
    wrong, errors = [], []

    def client(offset):
        try:
            together.wait()
            for i in range(ROUNDS * len(bounds)):
                bound = bounds[(offset + i) % len(bounds)]
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
    # the same encoding sets, however the two threads raced to them
    stats = confidence_engine(udb.world_table).stats()
    assert stats["cached_encoded_groups"] == stored
