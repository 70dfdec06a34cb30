"""The one eviction policy, through both of its users.

``LruHotCache`` (LRU order, a pinned hot set, no wholesale clear) bounds
the plan cache and the expression kernel cache.  The policy tests below
have one body, parametrised by which user drives the cache through its
module API; what only the plan cache has (invalidation, the module lock)
is tested on it alone.  Plan-cache entries here are synthetic: empty
dependency lists keep them epoch-valid forever.
"""

from __future__ import annotations

import pytest

from repro.relational import expressions, plancache
from repro.relational.plancache import PlanRecord


def record(name, cls="scan"):
    return PlanRecord(f"payload-{name}", None, None, cls)


class PlanCacheUser:
    limit = (plancache, "_PLAN_CACHE_LIMIT")
    reset = staticmethod(plancache.reset_plan_cache)
    stats = staticmethod(plancache.plan_cache_stats)

    @staticmethod
    def cache():
        return plancache._entries

    @staticmethod
    def store(name):
        plancache.cache_store((name,), record(name), deps=[])

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
    plancache.cache_store(("dep",), record("dep"), deps=[relation])
    for _ in range(3):
        plancache.cache_lookup(("dep",))
    assert plancache.plan_cache_stats()["pinned"] == 1
    plancache.bump_relation(relation)
    assert not PlanCacheUser.present("dep")
    assert plancache.plan_cache_stats()["pinned"] == 0
    assert not plancache._by_relation


def test_eviction_unhooks_the_reverse_dependency_map(tiny_cache):
    """An entry the policy evicts must leave ``_by_relation`` with it, or
    the map would pin its relation's id past the relation's life."""
    from repro.relational.relation import Relation

    relations = [Relation(["a"], [(i,)]) for i in range(6)]
    for i, relation in enumerate(relations):
        plancache.cache_store((f"q{i}",), record(f"q{i}"), deps=[relation])
    assert set(plancache._by_relation) == {id(r) for r in relations[2:]}
    assert plancache.bump_relation(relations[0]) == 0  # evicted, not invalidated
    assert plancache.bump_relation(relations[5]) == 1


def test_restore_replaces_in_place(tiny_cache):
    from repro.relational.relation import Relation

    old, new = Relation(["a"], [(1,)]), Relation(["a"], [(2,)])
    plancache.cache_store(("q",), record("q", "scan"), deps=[old])
    plancache.cache_store(("q",), record("q", "join"), deps=[new])
    stats = plancache.plan_cache_stats()
    assert stats["size"] == 1 and stats["evictions"] == 0
    assert plancache.cache_lookup(("q",)).cost_class == "join"
    assert set(plancache._by_relation) == {id(new)}  # the replaced entry unhooked


def test_concurrent_store_lookup_invalidate_is_safe(tiny_cache, monkeypatch):
    """A stress belt for the lock: stores, lookups, and bumps from many
    threads never corrupt the cache maps (sizes stay bounded, no
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
                plancache.cache_store((thread_id, i % 8), record(i), deps=[relation])
                plancache.cache_lookup((thread_id, (i + 1) % 8))
                if i % 17 == 0:
                    plancache.bump_relation(relation)
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
    # the reverse dependency map names no entry the cache no longer holds
    hooked = {key for keys in plancache._by_relation.values() for key in keys}
    assert all(plancache._entries.peek(key) is not None for key in hooked)
