"""Tests for the prepared-plan cache.

Three families:

* mechanics — hit/miss accounting, one entry per query structure and
  database (the reference adds none), the entry pinning its database, ``(cached)`` EXPLAIN
  marking, the partitions an entry names and reset, through the U-level
  entry points (``execute_query`` / ``explain_query``), the cache's one
  caller;
* invalidation — each relation-level change (index build or drop,
  statistics refresh) drops the planning facts memoized on the relation,
  so the next lookup of exactly the entries over it re-plans; a
  stale-plan execution is impossible, and a lazy index build during
  planning does not invalidate the entry being stored;
* property tests (hypothesis) — a relational plan executed again is
  tuple-identical to a fresh compilation and to the reference
  (``algebra.evaluate``), over relations with and without index
  definitions.
"""

from __future__ import annotations

import gc
import weakref

from hypothesis import given, settings, strategies as st

from repro.core import Descriptor, UDatabase, URelation, WorldTable
from repro.core.query import Poss, Rel, UProject, USelect
from repro.core.translate import (
    execute_query,
    explain_query,
    query_cache_key,
    reference_query,
)
from repro.relational import (
    Relation,
    col,
    lit,
    plan_cache_stats,
    reset_plan_cache,
)
from repro.relational.algebra import (
    Distinct,
    Join,
    Product,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    evaluate,
)
from repro.relational.index import built_indexes_on, drop_index_def, ensure_index
from repro.relational.optimizer import optimize, refresh_statistics
from repro.relational import plancache
from repro.relational.plancache import (
    PlanRecord,
    cache_lookup,
    cache_store,
    cost_class_of,
    planned_over,
    planning_facts,
)
from repro.relational.planner import plan_physical
from repro.relational.physical import execute
from repro.sql import execute_sql

from tests.conftest import build_vehicles_udb, partition_relation


def tanks(kind="Tank"):
    return Poss(UProject(USelect(Rel("r"), col("type").eq(lit(kind))), ["id"]))


class TestMechanics:
    def test_second_run_hits_and_matches(self):
        udb = build_vehicles_udb()
        first = execute_query(tanks(), udb)
        stats = plan_cache_stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 0, 1)
        second = execute_query(tanks(), udb)
        stats = plan_cache_stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
        assert first == second

    def test_structurally_equal_plans_share_one_entry(self):
        udb = build_vehicles_udb()
        execute_query(tanks(), udb)
        execute_query(tanks(), udb)  # a *new* but structurally identical tree
        execute_query(tanks("Transport"), udb)  # literals key by value
        stats = plan_cache_stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (2, 1, 2)

    def test_query_cache_key_distinguishes_structure(self):
        udb = build_vehicles_udb()
        key = query_cache_key(tanks(), udb)
        assert key == ("uquery", id(udb), key[2])
        assert key == query_cache_key(tanks(), udb)
        assert key != query_cache_key(tanks("Transport"), udb)

    def test_each_database_keys_its_own_entry(self):
        a, b = build_vehicles_udb(), build_vehicles_udb()
        assert query_cache_key(tanks(), a) != query_cache_key(tanks(), b)
        assert execute_query(tanks(), a) == execute_query(tanks(), b)
        stats = plan_cache_stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (2, 0, 2)

    def test_entry_pins_its_database(self):
        """Keys name the catalog by ``id()``: an entry keeps it alive, so
        the id cannot be recycled while the entry can be looked up."""
        udb = build_vehicles_udb()
        execute_query(tanks(), udb)
        ref = weakref.ref(udb)
        del udb
        gc.collect()
        assert ref() is not None
        reset_plan_cache()
        gc.collect()
        assert ref() is None

    def test_one_entry_per_shape_and_none_for_the_reference(self):
        udb = build_vehicles_udb()
        reference = reference_query(tanks(), udb)
        assert plan_cache_stats()["misses"] == 0
        for _ in range(3):
            assert execute_query(tanks(), udb) == reference
        stats = plan_cache_stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 2, 1)

    def test_explain_marks_cached(self):
        udb = build_vehicles_udb()
        cold = explain_query(tanks(), udb)
        assert "(cached)" not in cold
        warm = explain_query(tanks(), udb)
        assert warm.splitlines()[0].endswith("(cached)")
        # explain inserted the plan: running now skips planning
        before = plan_cache_stats()["misses"]
        execute_query(tanks(), udb)
        assert plan_cache_stats()["misses"] == before

    def test_explain_analyze_on_cached_plan(self):
        udb = build_vehicles_udb()
        execute_query(tanks(), udb)
        text = explain_query(tanks(), udb, analyze=True)
        assert "(cached)" in text.splitlines()[0]
        assert "actual rows=" in text

    def test_reset_clears_entries_and_counters(self):
        execute_query(tanks(), build_vehicles_udb())
        reset_plan_cache()
        stats = plan_cache_stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "evictions": 0,
            "pinned": 0,
            "size": 0,
        }

    def test_the_entry_names_the_partitions_it_reads(self):
        udb = build_vehicles_udb()
        execute_query(tanks(), udb)
        (entry,) = plancache._entries.values()
        assert set(entry.slots) == {"u_r_id", "u_r_type"}
        # by label only: the plan's leaves hold no partition version
        scans = [entry.record.physical]
        while scans:
            node = scans.pop()
            assert getattr(node, "relation", None) is None
            scans.extend(node.children)
        assert partition_relation(udb, "u_r_id") is udb.catalog().versions["u_r_id"]


class Owner:
    """A catalog stand-in: ``relation`` under the one label ``t``."""

    def __init__(self, relation):
        self.versions = {"t": relation}

    def catalog(self):
        return self


def cache_plan_over(relation: Relation, key) -> None:
    """Plan a selection over ``relation`` and store it under ``key``."""
    logical = Select(Scan(relation, "t"), col("a").eq(lit(1)))
    physical = plan_physical(optimize(logical))
    record = PlanRecord(physical, None, None, cost_class_of(physical))
    cache_store(key, record, planned_over({"t": relation}, {"t": ()}), Owner(relation))


class TestInvalidation:
    """Every relation-level change — index build or drop, statistics
    refresh — drops the planning facts memoized on the relation: the next
    lookup of an entry over it sees a changed fact and re-plans, and an
    entry over another relation still hits."""

    def setup_method(self):
        self.r = Relation(["a", "b"], [(i % 5, i) for i in range(40)])
        self.s = Relation(["a", "d"], [(i % 7, -i) for i in range(30)])

    def cache_both(self):
        cache_plan_over(self.r, ("r",))
        cache_plan_over(self.s, ("s",))
        assert plan_cache_stats()["size"] == 2
        self.facts = planning_facts(self.r, ())

    def assert_next_r_lookup_replans(self):
        assert plan_cache_stats()["invalidations"] == 0  # nothing scanned the cache
        assert planning_facts(self.r, ()) != self.facts
        assert cache_lookup(("r",)) is None  # r must re-plan
        assert cache_lookup(("s",)) is not None  # s still cached
        stats = plan_cache_stats()
        assert stats["invalidations"] == 1 and stats["size"] == 1

    def test_create_index_replans_the_next_lookup(self):
        self.cache_both()
        ensure_index(self.r, ["a"], kind="hash")
        self.assert_next_r_lookup_replans()

    def test_drop_index_replans_the_next_lookup(self):
        index = ensure_index(self.r, ["a"], kind="hash")
        self.cache_both()
        drop_index_def(self.r, index.name)
        self.assert_next_r_lookup_replans()

    def test_analyze_replans_the_next_lookup(self):
        self.cache_both()
        refresh_statistics(self.r)
        self.assert_next_r_lookup_replans()

    def test_ensuring_a_listed_index_replans_nothing(self):
        index = ensure_index(self.r, ["a"], kind="hash")
        self.cache_both()
        assert ensure_index(self.r, ["a"], kind="hash") is index  # no access-path change
        assert not drop_index_def(self.s, index.name)  # not listed there: a no-op
        assert planning_facts(self.r, ()) is self.facts  # the memo survived
        assert cache_lookup(("r",)) is not None
        assert plan_cache_stats()["invalidations"] == 0

    def test_the_facts_memo_lives_on_the_version(self):
        """One computation per version and probe set; a change drops only
        that version's memo, and the entries over it re-check the facts."""
        self.cache_both()
        cache_plan_over(self.r, ("r", "again"))
        assert planning_facts(self.r, ()) is self.facts  # memoized
        s_facts = planning_facts(self.s, ())
        refresh_statistics(self.r)
        assert planning_facts(self.s, ()) is s_facts
        assert cache_lookup(("r",)) is None and cache_lookup(("r", "again")) is None
        assert cache_lookup(("s",)) is not None
        assert plan_cache_stats()["invalidations"] == 2

    def test_stale_plan_execution_is_impossible(self):
        """The end-to-end guarantee: after any write, the next run sees the
        new data — no interleaving can observe the old plan."""
        udb = build_vehicles_udb()
        expected = {row[0] for row in execute_query(tanks(), udb).rows}
        for new_id in (10, 11, 12):
            execute_sql(f"insert into r values ({new_id}, 'Tank', 'Friend')", udb)
            expected.add(new_id)
            assert {row[0] for row in execute_query(tanks(), udb).rows} == expected
        execute_sql("delete from r where id = 11", udb)
        expected.discard(11)
        assert {row[0] for row in execute_query(tanks(), udb).rows} == expected

    def test_lazy_index_build_during_planning_is_self_consistent(self):
        """A deferred index that materializes *during* a miss's planning
        must not invalidate the entry being inserted."""
        part = URelation.build(
            [(Descriptor(), i, (i % 3,)) for i in range(20)],
            tid_name="tid_s",
            value_names=["v"],
        )
        udb = UDatabase(WorldTable({"x": [1, 2]}))  # auto-index, deferred
        udb.add_relation("s", ["v"], [part])
        query = Poss(USelect(Rel("s"), col("v").eq(lit(1))))
        execute_query(query, udb)  # planning builds the deferred index, then caches
        assert built_indexes_on(part.relation)
        before = plan_cache_stats()["hits"]
        execute_query(query, udb)
        assert plan_cache_stats()["hits"] == before + 1


# ----------------------------------------------------------------------
# property tests: re-executed == fresh, both modes x knobs
# ----------------------------------------------------------------------
values = st.one_of(st.integers(min_value=0, max_value=9), st.none())
rows_r = st.lists(st.tuples(values, values), min_size=0, max_size=30)
rows_s = st.lists(st.tuples(values, values), min_size=0, max_size=30)


@st.composite
def predicates(draw, columns):
    column = col(draw(st.sampled_from(columns)))
    kind = draw(st.sampled_from(["eq", "lt", "gt", "between", "in", "isnull"]))
    v = draw(st.integers(min_value=0, max_value=9))
    if kind == "eq":
        return column.eq(lit(v))
    if kind == "lt":
        return column < lit(v)
    if kind == "gt":
        return column > lit(v)
    if kind == "between":
        lo = draw(st.integers(min_value=0, max_value=9))
        return column.between(min(lo, v), max(lo, v))
    if kind == "in":
        return column.in_list([v, (v + 3) % 10])
    return column.is_null()


@st.composite
def plans(draw):
    r = Relation(["r.a", "r.b"], draw(rows_r))
    s = Relation(["s.c", "s.d"], draw(rows_s))
    if draw(st.booleans()):  # else every scan sequential, every equi-join hashed
        for rel, names in ((r, ["r.a", "r.b"]), (s, ["s.c", "s.d"])):
            for name in names:
                ensure_index(rel, [name], kind="hash")
                ensure_index(rel, [name], kind="sorted")
    r_scan, s_scan = Scan(r, "r"), Scan(s, "s")
    shape = draw(
        st.sampled_from(
            ["select", "project_select", "rename_select", "join", "join_select",
             "distinct", "product", "union"]
        )
    )
    if shape == "select":
        return Select(r_scan, draw(predicates(["r.a", "r.b"])))
    if shape == "project_select":
        return Project(Select(r_scan, draw(predicates(["r.a", "r.b"]))), ["r.b", "r.a"])
    if shape == "rename_select":
        renamed = Rename(r_scan, {"r.a": "x.a"})
        return Project(Select(renamed, draw(predicates(["x.a", "r.b"]))), ["x.a"])
    join = Join(
        Select(r_scan, draw(predicates(["r.a", "r.b"]))),
        s_scan,
        col("r.a").eq(col("s.c")),
    )
    if shape == "join":
        return join
    if shape == "join_select":
        return Select(join, draw(predicates(["r.b", "s.d"])))
    if shape == "distinct":
        return Distinct(Project(Select(r_scan, draw(predicates(["r.a"]))), ["r.b"]))
    if shape == "product":
        return Select(Product(r_scan, s_scan), draw(predicates(["r.a", "s.d"])))
    return Union(Project(r_scan, ["r.a"]), Project(s_scan, ["s.c"]))


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@given(plans())
@settings(max_examples=120, deadline=None)
def test_cached_equals_fresh(plan):
    """A cached plan is one physical tree executed again and again: it
    produces the same tuples a fresh compilation does, and the reference,
    on repeated executions of the same tree."""

    def compiled():
        return plan_physical(optimize(plan))

    fresh = execute(compiled())
    assert bag(fresh) == bag(evaluate(plan))
    physical = compiled()
    cold, warm, warm_again = (execute(physical) for _ in range(3))
    assert bag(cold) == bag(fresh)
    assert bag(warm) == bag(fresh)
    assert bag(warm_again) == bag(fresh)
    assert warm.schema.names == fresh.schema.names
    assert cost_class_of(physical)
