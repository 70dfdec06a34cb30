"""The invalidation test matrix for the prepared-plan cache (UDatabase).

Each catalog mutation — ``create(replace=True)``, ``CREATE INDEX``,
``DROP INDEX``, ``DROP TABLE``, world-table growth, and the lazy
partition-index first build — must bump the catalog version
and evict exactly the dependent entries: a stale-plan execution must be
impossible to observe, and unrelated cached plans must keep hitting.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Descriptor,
    Poss,
    Rel,
    UProject,
    URelation,
    USelect,
    UDatabase,
    WorldTable,
)
from repro.core.translate import execute_query
from repro.relational import col, lit, plan_cache_stats
from repro.relational.index import indexes_on
from repro.relational.relation import Relation
from repro.sql import execute_sql

from tests.conftest import build_vehicles_udb


def q_type():
    """A query whose minimal cover is only the ``type`` partition of ``r``."""
    return Poss(UProject(USelect(Rel("r"), col("type").eq(lit("Tank"))), ["type"]))


def q_faction():
    """A query whose minimal cover is only the ``faction`` partition."""
    return Poss(
        UProject(USelect(Rel("r"), col("faction").eq(lit("Friend"))), ["faction"])
    )


def warm(udb, *queries):
    """Run each query twice; assert the second run is planning-free."""
    answers = []
    for query in queries:
        answers.append(execute_query(query, udb))
        misses = plan_cache_stats()["misses"]
        again = execute_query(query, udb)
        assert plan_cache_stats()["misses"] == misses, "second run re-planned"
        assert again == answers[-1]
    return answers


class TestInvalidationMatrix:
    def test_create_replace_evicts_dependents_only(self):
        udb = build_vehicles_udb()
        db = udb.to_database()
        tank, friend = warm(udb, q_type(), q_faction())
        version = udb.catalog_version
        db_version = db.catalog_version

        # replace the type partition's relation through the catalog view
        old = db.get("u_r_type")
        rows = [r for r in old.rows if r[2] != "Tank"]  # drop the Tank rows
        db.create("u_r_type", Relation(old.schema, rows), replace=True)

        assert udb.catalog_version > version
        assert db.catalog_version > db_version
        assert plan_cache_stats()["invalidations"] >= 1
        # the faction query's plan survived: still hit
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        # note: udb partitions still hold the *old* relation object, so the
        # logical query over `r` replans against them; the eviction is what
        # guarantees no stale physical tree survives the catalog change
        misses = plan_cache_stats()["misses"]
        execute_query(q_type(), udb)
        assert plan_cache_stats()["misses"] == misses + 1

    def test_create_index_evicts_dependents_only(self):
        udb = build_vehicles_udb()
        tank, friend = warm(udb, q_type(), q_faction())
        version = udb.catalog_version
        execute_sql("create index idx_extra on u_r_type (type) using hash", udb)
        assert udb.catalog_version > version
        assert plan_cache_stats()["invalidations"] >= 1
        # faction survived, type re-plans (it may now use the index)
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["misses"] == misses + 1

    def test_drop_index_evicts_dependents_only(self):
        udb = build_vehicles_udb()
        execute_sql("create index idx_extra on u_r_type (type) using hash", udb)
        tank, friend = warm(udb, q_type(), q_faction())
        version = udb.catalog_version
        execute_sql("drop index idx_extra", udb)
        assert udb.catalog_version > version
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["misses"] == misses + 1

    def test_drop_table_evicts_dependents_only(self):
        from repro.relational.algebra import Select

        udb = build_vehicles_udb()
        db = udb.to_database()
        # cache one Database-level plan per table
        db.run(Select(db.scan("u_r_type"), col("type").eq(lit("Tank"))))
        over_faction_plan = Select(
            db.scan("u_r_faction"), col("faction").eq(lit("Friend"))
        )
        db.run(over_faction_plan)
        size = plan_cache_stats()["size"]
        version = db.catalog_version
        db.drop("u_r_type")
        assert db.catalog_version > version
        stats = plan_cache_stats()
        assert stats["invalidations"] >= 1
        assert stats["size"] < size
        hits = stats["hits"]
        db.run(over_faction_plan)  # unrelated entry survived
        assert plan_cache_stats()["hits"] == hits + 1

    def test_world_growth_bumps_the_version_and_evicts_nothing(self):
        udb = build_vehicles_udb()
        db = udb.to_database()
        from repro.relational.algebra import Select

        w_plan = Select(db.scan("w"), col("var").eq(lit("x")))
        partition_plan = Select(db.scan("u_r_type"), col("type").eq(lit("Tank")))
        old_w = db.run(w_plan)
        db.run(partition_plan)
        version = udb.catalog_version
        invalidations = plan_cache_stats()["invalidations"]
        udb.world_table.add_variable("v_new", [1, 2])
        assert udb.catalog_version > version  # growth bumps immediately
        # an export is a snapshot: its `w` is the relation it was given, so
        # no cached plan over it can be stale and none is evicted
        hits = plan_cache_stats()["hits"]
        assert db.run(w_plan) == old_w
        db.run(partition_plan)
        assert plan_cache_stats()["hits"] == hits + 2
        assert plan_cache_stats()["invalidations"] == invalidations
        # a fresh export sees the new variable
        fresh_db = udb.to_database()
        fresh = Select(fresh_db.scan("w"), col("var").eq(lit("v_new")))
        assert len(fresh_db.run(fresh)) == 2

    def test_lazy_partition_index_first_build_bumps_and_evicts(self):
        """The deferred auto-index build is a catalog mutation: it bumps
        the version, and a plan cached *without* access paths re-plans."""
        w = WorldTable({"x": [1, 2]})
        part = URelation.build(
            [(Descriptor(), f"t{i}", (i % 4,)) for i in range(16)],
            tid_name="tid_s",
            value_names=["v"],
        )
        udb = UDatabase(w)  # auto_index=True, lazy by default
        udb.add_relation("s", ["v"], [part])
        assert not getattr(part.relation, "_indexes", None)  # still deferred

        # cache a plan that bypasses access-path discovery entirely
        query = Poss(USelect(Rel("s"), col("v").eq(lit(1))))
        no_index = execute_query(query, udb, use_indexes=False)
        version = udb.catalog_version
        size = plan_cache_stats()["size"]

        # first *indexed* planning materializes the deferred definitions
        indexed = execute_query(query, udb)
        assert indexes_on(part.relation)  # now built
        assert udb.catalog_version > version
        assert indexed == no_index
        # the build evicted the dependent no-index entry: it re-plans
        misses = plan_cache_stats()["misses"]
        assert execute_query(query, udb, use_indexes=False) == no_index
        assert plan_cache_stats()["misses"] == misses + 1

    def test_add_relation_replacement_evicts(self):
        udb = build_vehicles_udb()
        (tank,) = warm(udb, q_type())
        version = udb.catalog_version
        # re-register r with the same partitions (a partition swap in place)
        udb.add_relation("r", ["id", "type", "faction"], udb.partitions("r"))
        assert udb.catalog_version > version
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["misses"] == misses + 1

    def test_stale_execution_impossible_through_sql(self):
        """End to end: warm plan, mutate through every SQL-visible channel,
        and verify the answers always reflect the current catalog."""
        udb = build_vehicles_udb()
        sql = "possible (select id from r where type = 'Tank')"
        first = execute_sql(sql, udb)
        execute_sql("create index idx_probe on u_r_type (type) using sorted", udb)
        second = execute_sql(sql, udb)
        assert first == second
        execute_sql("drop index idx_probe", udb)
        assert execute_sql(sql, udb) == first
