"""The one eviction policy, through both of its users.

``LruHotCache`` (LRU order, a pinned hot set, no wholesale clear) bounds
the plan cache and the expression kernel cache.  The policy tests below
have one body, parametrised by which user drives the cache through its
module API; what only the plan cache has (invalidation, the module lock)
is tested on it alone.  Plan-cache entries here are synthetic: an entry
without slots reads no partition and stays valid forever; one over a
relation reads it under the label ``t`` of a catalog stand-in.
"""

from __future__ import annotations

import pytest

from repro.relational import expressions, plancache
from repro.relational.optimizer import refresh_statistics
from repro.relational.plancache import PlanRecord


def record(name, cls="scan"):
    return PlanRecord(f"payload-{name}", None, None, cls)


class Owner:
    """A catalog stand-in: ``relation`` under the one label ``t``."""

    def __init__(self, relation):
        self.versions = {"t": relation}

    def catalog(self):
        return self


def store_over(key, payload, relation):
    """Store ``payload`` as a plan reading ``relation`` through slot ``t``."""
    slots = plancache.planned_over({"t": relation}, {"t": ()})
    plancache.cache_store(key, payload, slots, Owner(relation))


class PlanCacheUser:
    limit = (plancache, "_PLAN_CACHE_LIMIT")
    reset = staticmethod(plancache.reset_plan_cache)
    stats = staticmethod(plancache.plan_cache_stats)

    @staticmethod
    def cache():
        return plancache._entries

    @staticmethod
    def store(name):
        plancache.cache_store((name,), record(name), {}, None)

    @staticmethod
    def hit(name):
        assert plancache.cache_lookup((name,)) == record(name)

    @staticmethod
    def present(name):
        return plancache.cached_cost_class((name,)) is not None


class KernelCacheUser:
    limit = (expressions, "_KERNEL_CACHE_LIMIT")
    reset = staticmethod(expressions.reset_compile_cache)
    stats = staticmethod(expressions.compile_cache_stats)
    cache = staticmethod(expressions._kernel_cache)

    @staticmethod
    def store(name):
        expressions.cached_kernel((name,), lambda: f"kernel-{name}")

    @staticmethod
    def hit(name):
        def rebuilt():
            raise AssertionError(f"{name} was compiled again")

        assert expressions.cached_kernel((name,), rebuilt) == f"kernel-{name}"

    @staticmethod
    def present(name):
        return expressions._kernel_cache().peek((name,)) is not None


def shrink(cache_user, monkeypatch):
    """A cache of 4 (so 2 pinnable) entries that pins after 3 hits:
    eviction is observable with few entries."""
    monkeypatch.setattr(*cache_user.limit, 4)
    monkeypatch.setattr(plancache, "_HOT_PIN_HITS", 3)
    cache_user.reset()  # a cache reads its limit when it is built


@pytest.fixture(params=[PlanCacheUser, KernelCacheUser], ids=["plan-cache", "kernel-cache"])
def user(request, monkeypatch):
    shrink(request.param, monkeypatch)
    yield request.param
    request.param.reset()


@pytest.fixture()
def tiny_cache(monkeypatch):
    shrink(PlanCacheUser, monkeypatch)
    yield
    plancache.reset_plan_cache()


def test_capacity_is_respected_without_wholesale_clear(user):
    for i in range(10):
        user.store(f"q{i}")
    stats = user.stats()
    assert stats["size"] == 4
    assert stats["evictions"] == 6
    # the newest entries survived — no wholesale clear
    assert user.present("q9") and user.present("q8")


def test_eviction_takes_the_least_recently_used(user):
    for name in ("a", "b", "c", "d"):
        user.store(name)
    user.hit("a")  # refresh a: now most recently used
    user.store("e")
    assert not user.present("b")
    assert all(map(user.present, ("a", "c", "d", "e")))


def test_hot_entries_are_pinned_against_eviction(user):
    user.store("hot")
    for _ in range(3):  # _HOT_PIN_HITS lookups pin it
        user.hit("hot")
    assert user.stats()["pinned"] == 1
    for i in range(8):
        user.store(f"filler{i}")
    assert user.present("hot")  # survived 8 insertions at capacity 4


def test_pin_cap_bounds_the_hot_set(user):
    for name in ("h1", "h2", "h3"):
        user.store(name)
        for _ in range(3):
            user.hit(name)
    assert user.stats()["pinned"] == 2  # half the capacity, not 3


def test_everything_pinned_still_makes_progress(user):
    user.cache().pin_cap = 10  # pin without bound
    for name in ("a", "b", "c", "d"):
        user.store(name)
        for _ in range(3):
            user.hit(name)
    assert user.stats()["pinned"] == 4
    user.store("new")  # all candidates pinned: the stalest entry goes anyway
    assert user.present("new") and not user.present("a")
    assert user.stats()["size"] == 4
    assert user.stats()["pinned"] == 3


def test_invalidation_still_evicts_pinned_entries(tiny_cache):
    from repro.relational.relation import Relation

    relation = Relation(["a"], [(1,)])
    store_over(("dep",), record("dep"), relation)
    for _ in range(3):
        plancache.cache_lookup(("dep",))
    assert plancache.plan_cache_stats()["pinned"] == 1
    refresh_statistics(relation)  # a new statistics generation: a changed fact
    assert plancache.cache_lookup(("dep",)) is None
    assert not PlanCacheUser.present("dep")
    stats = plancache.plan_cache_stats()
    assert stats["pinned"] == 0 and stats["invalidations"] == 1


def test_a_policy_eviction_leaves_nothing_to_invalidate(tiny_cache):
    """An entry the policy evicted is gone: a changed fact of its relation
    invalidates nothing (the lookup is a plain miss), a changed fact of a
    cached one's relation invalidates it at its next lookup."""
    from repro.relational.relation import Relation

    relations = [Relation(["a"], [(i,)]) for i in range(6)]
    for i, relation in enumerate(relations):
        store_over((f"q{i}",), record(f"q{i}"), relation)
    for relation in (relations[0], relations[5]):
        refresh_statistics(relation)
    assert plancache.cache_lookup(("q0",)) is None  # evicted, not invalidated
    assert plancache.plan_cache_stats()["invalidations"] == 0
    assert plancache.cache_lookup(("q5",)) is None
    assert plancache.plan_cache_stats()["invalidations"] == 1


def test_restore_replaces_in_place(tiny_cache):
    from repro.relational.relation import Relation

    old, new = Relation(["a"], [(1,)]), Relation(["a"], [(2,)])
    store_over(("q",), record("q", "scan"), old)
    store_over(("q",), record("q", "join"), new)
    stats = plancache.plan_cache_stats()
    assert stats["size"] == 1 and stats["evictions"] == 0
    assert plancache.cache_lookup(("q",)).cost_class == "join"
    refresh_statistics(old)  # the replaced entry is gone: nothing reads old
    assert plancache.cache_lookup(("q",)).cost_class == "join"
    assert plancache.plan_cache_stats()["invalidations"] == 0


def test_concurrent_store_lookup_invalidate_is_safe(tiny_cache, monkeypatch):
    """A stress belt for the lock: stores, lookups, and fact changes from
    many threads never corrupt the cache maps (sizes stay bounded, no
    exceptions escape)."""
    import threading

    from repro.relational.relation import Relation

    monkeypatch.setattr(plancache, "_PLAN_CACHE_LIMIT", 16)
    plancache.reset_plan_cache()
    relations = [Relation(["a"], [(i,)]) for i in range(4)]
    errors = []

    def churn(thread_id):
        try:
            for i in range(200):
                relation = relations[(thread_id + i) % 4]
                store_over((thread_id, i % 8), record(i), relation)
                plancache.cache_lookup((thread_id, (i + 1) % 8))
                if i % 17 == 0:
                    refresh_statistics(relation)
        except Exception as error:  # pragma: no cover - the assertion
            errors.append(error)

    threads = [threading.Thread(target=churn, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert not any(t.is_alive() for t in threads)
    assert plancache.plan_cache_stats()["size"] <= 16
    assert len(plancache._entries.items()) == plancache.plan_cache_stats()["size"]
