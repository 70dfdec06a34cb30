"""A facts fill racing ``DROP INDEX``: the memo never keeps the dropped index.

A cached plan is valid over a partition version while the planning facts
memoized on that version (``plancache.planning_facts``) equal the ones it
was built on.  ``DROP INDEX`` changes the version's definition set in
place and then drops the memo.  Two interleavings are driven by hand:

* a fill of a fresh version's facts pauses right after it has read the
  definitions (the index still there) while another thread drops the
  index; released, it writes into the memo dict it read first, which
  the drop has already replaced;
* a fill runs at the very moment the drop forgets the memo: it must
  already see the definition set without the index.

Either way the next lookup re-plans, and no execution after it builds a
private copy of the dropped index (``index_named``'s fallback for a plan
that still names one).  A stress run of fills against repeated DDL must
end with the memo equal to a fresh computation.
"""

from __future__ import annotations

import sys
import threading

from repro.relational import index as index_module
from repro.relational import plan_cache_stats, plancache
from repro.sql import execute_sql, prepare

from tests.conftest import build_vehicles_udb, partition_relation

SQL = "possible (select id from r where type = $1)"
DROPPED = "idx_u_r_id_tid"  # the tid index the cached plan's join probes
TANKS = [(1,), (2,), (3,), (4,), (9,)]


def _cached_over_a_fresh_version():
    """A statement whose cached plan probes ``DROPPED``, and a write after
    it: the ``u_r_id`` version the next lookup reads has no facts yet."""
    udb = build_vehicles_udb()
    statement = prepare(SQL, udb)
    statement.run("Tank")
    execute_sql("insert into r values (9, 'Tank', 'Enemy')", udb)
    fresh = partition_relation(udb, "u_r_id")
    assert getattr(fresh, "_facts", None) is None
    return udb, statement, fresh


def _three_executions_replan_and_build_nothing(statement, monkeypatch):
    builds = []
    real = index_module.build_index

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(index_module, "build_index", counted)
    before = plan_cache_stats()
    for _ in range(3):
        assert sorted(statement.run("Tank").rows) == TANKS
    after = plan_cache_stats()
    assert after["invalidations"] == before["invalidations"] + 1
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"] + 2
    assert builds == []


def test_a_paused_fill_cannot_keep_a_dropped_index(monkeypatch):
    udb, statement, fresh = _cached_over_a_fresh_version()
    read = threading.Event()
    release = threading.Event()
    real = plancache.attached_index_defs

    def pausing(relation):
        defs = real(relation)
        if relation is fresh and not read.is_set():
            assert DROPPED in [name for _, _, name in defs]
            read.set()
            assert release.wait(timeout=10)
        return defs

    monkeypatch.setattr(plancache, "attached_index_defs", pausing)
    answers = []
    racing = threading.Thread(target=lambda: answers.append(statement.run("Tank").rows))
    racing.start()
    try:
        assert read.wait(timeout=10)
        dropper = threading.Thread(target=udb.drop_index, args=(DROPPED,))
        dropper.start()
        dropper.join(timeout=10)
        assert not dropper.is_alive()  # DDL never waits on the plan cache
    finally:
        release.set()
        racing.join(timeout=10)
    assert not racing.is_alive()
    # the racing execution looked its plan up before the drop landed
    assert sorted(answers[0]) == TANKS
    assert DROPPED not in [name for _, _, name in index_module.attached_index_defs(fresh)]
    _three_executions_replan_and_build_nothing(statement, monkeypatch)


def test_a_fill_at_the_memo_drop_sees_the_new_definitions(monkeypatch):
    udb, statement, fresh = _cached_over_a_fresh_version()
    probes = plancache._entries.peek(statement.plan_key()).slots["u_r_id"].probes
    real = index_module.forget_facts

    def filling(relation):
        real(relation)
        if relation is fresh:
            plancache.planning_facts(relation, probes)

    monkeypatch.setattr(index_module, "forget_facts", filling)
    udb.drop_index(DROPPED)
    assert plancache.planning_facts(fresh, probes) == plancache._compute_facts(fresh, probes)
    _three_executions_replan_and_build_nothing(statement, monkeypatch)


def test_fills_racing_repeated_ddl_leave_the_memo_fresh():
    udb, statement, fresh = _cached_over_a_fresh_version()
    probes = plancache._entries.peek(statement.plan_key()).slots["u_r_id"].probes
    done = threading.Event()
    errors = []

    def fill():
        try:
            while not done.is_set():
                plancache.planning_facts(fresh, probes)
        except Exception as error:  # reported below, on the main thread
            errors.append(error)

    def ddl():
        try:
            for _ in range(100):
                udb.create_index("idx_stress", "u_r_id", ["id"])
                udb.drop_index("idx_stress")
        except Exception as error:  # reported below, on the main thread
            errors.append(error)
        finally:
            done.set()

    threads = [threading.Thread(target=fill) for _ in range(4)]
    threads.append(threading.Thread(target=ddl))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert plancache.planning_facts(fresh, probes) == plancache._compute_facts(fresh, probes)
    assert sorted(statement.run("Tank").rows) == TANKS
