"""Tests for the prepared-plan cache at the relational (Database) level.

Three families:

* mechanics — hit/miss/stats accounting, ``(cached)`` EXPLAIN marking,
  catalog versioning on every Database mutation;
* invalidation — each catalog mutation evicts exactly the dependent
  entries (unrelated cached plans survive and keep hitting);
* property tests (hypothesis) — cached-plan execution is tuple-identical
  to fresh-plan execution for the executor and the ``rows`` reference,
  ``use_indexes`` on/off, and fused/unfused plans.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import (
    Database,
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
)
from repro.relational.index import ensure_index
from repro.relational.optimizer import optimize
from repro.relational.plancache import (
    bump_relation,
    cached_cost_class,
    logical_plan_key,
    plan_relations,
    relation_epoch,
)
from repro.relational.planner import plan_physical
from repro.relational.physical import execute


def make_db():
    db = Database()
    db.create("r", Relation(["r.a", "r.b"], [(i % 5, i) for i in range(40)]))
    db.create("s", Relation(["s.c", "s.d"], [(i % 7, -i) for i in range(30)]))
    return db


def query(db):
    return Project(
        Select(
            Join(db.scan("r"), db.scan("s"), col("r.a").eq(col("s.c"))),
            col("r.b") > lit(3),
        ),
        ["r.b", "s.d"],
    )


class TestMechanics:
    def test_second_run_hits_and_matches(self):
        db = make_db()
        plan = query(db)
        first = db.run(plan)
        stats = plan_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0 and stats["size"] == 1
        second = db.run(plan)
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert first == second

    def test_structurally_equal_plans_share_one_entry(self):
        db = make_db()
        db.run(query(db))
        db.run(query(db))  # a *new* but structurally identical tree
        stats = plan_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_modes_share_or_split_entries_correctly(self):
        db = make_db()
        plan = query(db)
        db.run(plan, mode="columns")
        db.run(plan, mode="rows")  # unfused: a separate plan
        db.run(plan, mode="rows")
        stats = plan_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 1

    def test_knobs_key_separately(self):
        db = make_db()
        plan = query(db)
        db.run(plan)
        db.run(plan, use_indexes=False)
        db.run(plan, prefer_merge_join=True)
        db.run(plan, optimize_first=False)
        assert plan_cache_stats()["misses"] == 4
        # and each repeated combination hits
        db.run(plan, use_indexes=False)
        db.run(plan, prefer_merge_join=True)
        assert plan_cache_stats()["hits"] == 2

    def test_explain_marks_cached(self):
        db = make_db()
        plan = query(db)
        cold = db.explain(plan)
        assert "(cached)" not in cold
        warm = db.explain(plan)
        assert warm.splitlines()[0].endswith("(cached)")
        # explain inserted the plan: running now skips planning
        before = plan_cache_stats()["misses"]
        db.run(plan)
        assert plan_cache_stats()["misses"] == before

    def test_explain_analyze_on_cached_plan(self):
        db = make_db()
        plan = query(db)
        db.run(plan)
        text = db.explain(plan, analyze=True)
        assert "(cached)" in text.splitlines()[0]
        assert "actual rows=" in text

    def test_reset_clears_entries_and_counters(self):
        db = make_db()
        db.run(query(db))
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

    def test_logical_plan_key_distinguishes_structure(self):
        db = make_db()
        r = db.scan("r")
        base = Select(r, col("r.a").eq(lit(1)))
        other = Select(r, col("r.a").eq(lit(2)))
        assert logical_plan_key(base) != logical_plan_key(other)
        assert logical_plan_key(base) == logical_plan_key(
            Select(db.scan("r"), col("r.a").eq(lit(1)))
        )

    def test_plan_relations_collects_all_leaves(self):
        db = make_db()
        deps = plan_relations(query(db))
        assert db.get("r") in deps and db.get("s") in deps


class TestInvalidation:
    """Database-level mutations evict exactly the dependent entries."""

    def setup_entries(self, db):
        """Cache one plan over r and one over s; return their plans."""
        over_r = Select(db.scan("r"), col("r.a").eq(lit(1)))
        over_s = Select(db.scan("s"), col("s.c").eq(lit(1)))
        db.run(over_r)
        db.run(over_s)
        assert plan_cache_stats()["size"] == 2
        return over_r, over_s

    def assert_exactly_r_evicted(self, db, over_r, over_s):
        stats = plan_cache_stats()
        assert stats["invalidations"] >= 1
        assert stats["size"] == 1  # the s entry survived
        hits = stats["hits"]
        db.run(over_s)
        assert plan_cache_stats()["hits"] == hits + 1  # s still cached
        misses = plan_cache_stats()["misses"]
        result = db.run(over_r)  # r re-plans against the new catalog
        assert plan_cache_stats()["misses"] == misses + 1
        return result

    def test_create_replace_bumps_and_evicts(self):
        db = make_db()
        over_r, over_s = self.setup_entries(db)
        old_rows = list(db.get("r").rows)
        version = db.catalog_version
        replacement = Relation(["r.a", "r.b"], [(1, 100), (2, 200)])
        db.create("r", replacement, replace=True)
        assert db.catalog_version > version
        # the old plan object still scans the old (immutable) relation —
        # re-planning it is sound, just no longer cached
        result = self.assert_exactly_r_evicted(db, over_r, over_s)
        assert sorted(result.rows) == sorted(r for r in old_rows if r[0] == 1)
        # a plan built from the *current* catalog reads the replacement
        fresh = Select(db.scan("r"), col("r.a").eq(lit(1)))
        assert sorted(db.run(fresh).rows) == [(1, 100)]

    def test_drop_table_bumps_and_evicts(self):
        db = make_db()
        over_r, over_s = self.setup_entries(db)
        version = db.catalog_version
        db.drop("r")
        assert db.catalog_version > version
        stats = plan_cache_stats()
        assert stats["invalidations"] >= 1 and stats["size"] == 1
        db.run(over_s)
        assert plan_cache_stats()["hits"] >= 1

    def test_create_index_bumps_and_evicts(self):
        db = make_db()
        over_r, over_s = self.setup_entries(db)
        version = db.catalog_version
        db.create_index("idx_r_a", "r", ["r.a"], kind="hash")
        assert db.catalog_version > version
        result = self.assert_exactly_r_evicted(db, over_r, over_s)
        # the fresh plan may now use the index; answers are unchanged
        assert sorted(result.rows) == sorted(
            row for row in db.get("r").rows if row[0] == 1
        )
        assert "idx_r_a" in db.explain(over_r)

    def test_drop_index_bumps_and_evicts(self):
        db = make_db()
        db.create_index("idx_r_a", "r", ["r.a"], kind="hash")
        over_r, over_s = self.setup_entries(db)
        assert "idx_r_a" in db.explain(over_r)
        version = db.catalog_version
        db.drop_index("idx_r_a")
        assert db.catalog_version > version
        result = self.assert_exactly_r_evicted(db, over_r, over_s)
        assert sorted(result.rows) == sorted(
            row for row in db.get("r").rows if row[0] == 1
        )
        assert "idx_r_a" not in db.explain(over_r)

    def test_analyze_bumps_and_evicts(self):
        db = make_db()
        over_r, over_s = self.setup_entries(db)
        version = db.catalog_version
        db.analyze("r")
        assert db.catalog_version > version
        self.assert_exactly_r_evicted(db, over_r, over_s)

    def test_stale_plan_execution_is_impossible(self):
        """The end-to-end guarantee: after any replacement, the next run
        sees the new data — no interleaving can observe the old plan."""
        db = make_db()
        plan = Select(db.scan("r"), col("r.a").eq(lit(1)))
        db.run(plan)
        for fill in ([(1, -1)], [(1, -2), (1, -3)], []):
            db.create("r", Relation(["r.a", "r.b"], fill), replace=True)
            # plan embeds the *old* relation object: re-build the scan from
            # the current catalog, as any caller holding the Database would
            fresh = Select(db.scan("r"), col("r.a").eq(lit(1)))
            assert sorted(db.run(fresh).rows) == sorted(fill)

    def test_epoch_bump_is_per_relation(self):
        r = Relation(["a"], [(1,)])
        s = Relation(["b"], [(2,)])
        before_r, before_s = relation_epoch(r), relation_epoch(s)
        bump_relation(r)
        assert relation_epoch(r) == before_r + 1
        assert relation_epoch(s) == before_s

    def test_lazy_index_build_during_planning_is_self_consistent(self):
        """A deferred index that materializes *during* a miss's planning
        must not invalidate the entry being inserted."""
        from repro.relational.index import defer_index

        relation = Relation(["r.a", "r.b"], [(i % 3, i) for i in range(20)])
        defer_index(relation, ["r.a"], kind="hash")
        db = Database()
        db.create("r", relation)
        plan = Select(db.scan("r"), col("r.a").eq(lit(1)))
        db.run(plan)  # planning builds the deferred index, then caches
        before = plan_cache_stats()["hits"]
        db.run(plan)
        assert plan_cache_stats()["hits"] == before + 1


# ----------------------------------------------------------------------
# property tests: cached == fresh, both modes x knobs
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


@given(plans(), st.booleans(), st.sampled_from(["rows", "columns"]))
@settings(max_examples=120, deadline=None)
def test_cached_equals_fresh(plan, use_indexes, mode):
    """A plan served from the cache produces the same tuples a fresh
    compilation does — across modes and index knobs, and on repeated
    executions of the same cached tree."""
    fuse = mode == "columns"
    fresh = execute(
        plan_physical(optimize(plan), use_indexes=use_indexes, fuse=fuse), mode=mode
    )
    db = Database()
    cold = db.run(plan, mode=mode, use_indexes=use_indexes)
    warm = db.run(plan, mode=mode, use_indexes=use_indexes)
    warm_again = db.run(plan, mode=mode, use_indexes=use_indexes)
    assert bag(cold) == bag(fresh)
    assert bag(warm) == bag(fresh)
    assert bag(warm_again) == bag(fresh)
    assert warm.schema.names == fresh.schema.names
    assert cached_cost_class(
        ("db-run", id(db), logical_plan_key(plan), True, False, use_indexes, fuse)
    )


