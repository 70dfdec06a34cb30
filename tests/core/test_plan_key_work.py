"""Counted, never timed: what re-executing a cached plan derives.

A plan-cache key is a function of the statement (tree and database)
and a cost class is a function of the plan, so a served request for a
cached plan walks neither: the ``PreparedQuery`` derived its key once,
the ``PlanRecord`` carries the class, and the planning facts of a
partition version are computed once per version and memoized on it (a
lookup reads the memo).  One counted lookup per request is all the cache
sees.
"""

from __future__ import annotations

import sys

import pytest

import repro.core.translate  # noqa: F401 - the module; repro.core.translate is a function
from repro.relational import plancache
from repro.relational.plancache import plan_cache_stats
from repro.sql import prepare
from repro.ugen import generate_uncertain

from tests.conftest import build_vehicles_udb

POINT = "possible (select o.totalprice from orders o where o.orderkey = $1)"
Q1 = (
    "possible (select o.orderkey, o.orderdate, o.shippriority "
    "from customer c, orders o, lineitem l "
    "where c.mktsegment = 'BUILDING' and c.custkey = o.custkey "
    "and o.orderkey = l.orderkey "
    "and o.orderdate > '1995-03-15' and l.shipdate < '1995-03-17')"
)
STATEMENTS = pytest.mark.parametrize(
    "sql, params", [(POINT, (1,)), (Q1, ())], ids=["point", "q1"]
)


@pytest.fixture(scope="module")
def indexed_tpch():
    udb = generate_uncertain(scale=0.001, x=0.05, z=0.25, seed=1).udb
    udb.build_indexes()
    return udb


@pytest.fixture()
def derived(monkeypatch):
    """Call counts of the three derivations a cached request must skip."""
    calls = {}

    def counting(owner, name):
        real = getattr(owner, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(sys.modules["repro.core.translate"], "query_key")
    counting(plancache, "_compute_facts")
    counting(plancache, "cost_class_of")
    return calls


def _three_cached_requests(request, derived):
    first = request()  # plans: derives the key, the facts, the class
    assert len(first) > 0
    assert derived["query_key"] > 0 and derived["cost_class_of"] == 1
    for name in derived:
        derived[name] = 0
    before = plan_cache_stats()
    for done in (1, 2, 3):
        assert request() == first
        stats = plan_cache_stats()
        assert stats["hits"] == before["hits"] + done
        assert stats["misses"] == before["misses"]
    assert derived == {"query_key": 0, "_compute_facts": 0, "cost_class_of": 0}


@STATEMENTS
def test_prepared_query_run_derives_nothing_on_a_cached_plan(
    sql, params, indexed_tpch, derived
):
    statement = prepare(sql, indexed_tpch)
    _three_cached_requests(lambda: statement.run(*params), derived)


@STATEMENTS
def test_served_prepared_request_derives_nothing_on_a_cached_plan(
    sql, params, indexed_tpch, derived
):
    with indexed_tpch.serve(workers=2) as server:
        session = server.session()
        session.prepare("s", sql)
        _three_cached_requests(lambda: session.execute_prepared("s", *params), derived)
        admitted = server.stats()["admission"]
        assert admitted["cold"]["admitted"] == 1  # the planning request only
        assert sum(gate["admitted"] for gate in admitted.values()) == 4


def test_a_write_keeps_the_plan_and_a_changed_fact_replans_it(derived):
    udb = build_vehicles_udb()
    with udb.serve(workers=2) as server:
        session = server.session()
        session.prepare("s", "possible (select id from r where type = $1)")
        session.execute_prepared("s", "Tank")
        session.execute_prepared("s", "Tank")
        cold = server.stats()["admission"]["cold"]["admitted"]
        before = plan_cache_stats()
        for name in derived:
            derived[name] = 0
        session.execute("insert into r values (9, 'Tank', 'Enemy')")
        answer = session.execute_prepared("s", "Tank")
        assert (9,) in answer.rows
        stats = plan_cache_stats()
        # the plan survived the write: a hit, admitted under its class ...
        assert stats["invalidations"] == before["invalidations"]
        assert (stats["misses"], stats["hits"]) == (before["misses"], before["hits"] + 1)
        assert server.stats()["admission"]["cold"]["admitted"] == cold
        # ... that computed the new versions' facts once, and planned nothing
        assert derived["_compute_facts"] >= 1 and derived["cost_class_of"] == 0
        # a NULL in the scanned ``type`` column changes a fact: the next
        # request misses, re-plans and admits cold
        session.execute("insert into r values (10, NULL, 'Enemy')")
        answer = session.execute_prepared("s", "Tank")
        assert (9,) in answer.rows and (10,) not in answer.rows
        stats = plan_cache_stats()
        assert stats["invalidations"] == before["invalidations"] + 1
        assert stats["misses"] == before["misses"] + 1
        assert server.stats()["admission"]["cold"]["admitted"] > cold
        assert derived["cost_class_of"] == 1
        # ... and the request after it is a plain hit once more
        hits = plan_cache_stats()["hits"]
        session.execute_prepared("s", "Tank")
        assert plan_cache_stats()["hits"] == hits + 1
