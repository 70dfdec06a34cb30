"""Threads make the first executions of one cached Q2 plan at once.

Q2's cached plan evaluates its literal scan filter (``shipdate
BETWEEN``) and its two literal probe filters (``quantity < 24``,
``discount BETWEEN``) once per segment and keeps the result on the plan
node, keyed weakly by the segment (``FusedPipeline._kept``,
``IndexNestedLoopJoin._tables``).  Threads racing on a first use each
build an equal value and the first one stored stays.  Here ``THREADS``
threads run the plan while nothing is kept yet, held at the per-segment
predicate evaluation until all have reached it: every answer must be the
reference's, and each node must keep exactly one entry per segment of
the version it reads - on a one-segment version, and again after a write
appends a segment to every ``lineitem`` partition.
"""

from __future__ import annotations

import datetime
import sys
import threading

import pytest

import repro.relational.physical as physical
from repro.core import execute_query, reference_query
from repro.core.translate import explain_query, query_cache_key
from repro.relational.physical import FusedPipeline, IndexNestedLoopJoin
from repro.relational.plancache import cache_lookup
from repro.tpch import q2
from repro.ugen import generate_uncertain

THREADS = 4


def _nodes(plan):
    stack, out = [plan], []
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if isinstance(node, FusedPipeline) and node._kept is not None:
            out.append((node.source.name, node._kept))
        elif isinstance(node, IndexNestedLoopJoin) and node._tables is not None:
            out.append((node.name, node._tables))
    return out


def _race(monkeypatch, query, udb):
    """Run ``query`` on ``THREADS`` threads at once, held at the first
    per-segment predicate evaluation; -> the answers."""
    together = threading.Barrier(THREADS, timeout=0.5)
    real = physical._kept

    def racing(segment, width, predicates):
        try:
            together.wait()  # the other threads are at a first use too
        except threading.BrokenBarrierError:
            pass  # one found the entry kept: the race went that way
        return real(segment, width, predicates)

    monkeypatch.setattr(physical, "_kept", racing)
    answers, failures = [], []

    def run():
        try:
            answers.append(sorted(execute_query(query, udb).rows, key=repr))
        except Exception as error:  # reported below, on the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        monkeypatch.undo()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    return answers


def _copy_one_lineitem(udb):
    """Append one certain lineitem that Q2 answers, as one new segment."""
    row = [part.relation.rows[0][-1] for part in udb.partitions("lineitem")]
    names = [part.relation.schema.names[-1] for part in udb.partitions("lineitem")]
    changed = {
        "quantity": 10,
        "discount": 0.06,
        "shipdate": datetime.date(1995, 1, 1),
        "extendedprice": 123456.78,
    }
    udb.copy_rows("lineitem", [[changed.get(name, value) for name, value in zip(names, row)]])


@pytest.fixture(scope="module")
def tpch():
    return generate_uncertain(scale=0.0005, x=0.01, z=0.25, seed=7).udb


def test_first_executions_of_a_cached_q2_keep_one_entry_per_segment(monkeypatch, tpch):
    udb = tpch
    query = q2()
    explain_query(query, udb)  # caches the plan; nothing is kept yet
    plan = cache_lookup(query_cache_key(query, udb)).physical
    nodes = _nodes(plan)
    assert sorted(label for label, _ in nodes) == [
        "u_lineitem_discount",
        "u_lineitem_quantity",
        "u_lineitem_shipdate",
    ]
    assert all(len(memo) == 0 for _, memo in nodes)
    expected = sorted(reference_query(query, udb).rows, key=repr)
    assert expected  # an empty answer would check nothing

    assert _race(monkeypatch, query, udb) == [expected] * THREADS
    assert [len(memo) for _, memo in nodes] == [1] * len(nodes)

    # a write appends a segment to every lineitem partition: the base's
    # entries stay, and the racing threads add one for the new segment
    assert sorted(execute_query(query, udb).rows, key=repr) == expected
    assert [len(memo) for _, memo in nodes] == [1] * len(nodes)  # warm: kept
    before = {label: dict(memo) for label, memo in nodes}
    _copy_one_lineitem(udb)
    assert all(len(p.relation.segments()) == 2 for p in udb.partitions("lineitem"))
    expected = sorted(reference_query(query, udb).rows, key=repr)
    assert (123456.78,) in expected
    assert _race(monkeypatch, query, udb) == [expected] * THREADS
    for label, memo in nodes:
        assert len(memo) == 2, label
        for segment, value in before[label].items():
            assert memo[segment] is value, label  # the base's entry stayed
