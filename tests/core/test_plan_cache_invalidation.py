"""The invalidation test matrix for the prepared-plan cache (UDatabase).

Each catalog mutation in place — ``CREATE INDEX``, ``DROP INDEX``, a
statistics refresh, re-registering a relation, and the lazy
partition-index first build — must bump the catalog version and evict
exactly the dependent entries: a stale-plan execution must be impossible
to observe, and unrelated cached plans must keep hitting.  A write
(``replace_partitions``) moves the version and evicts nothing: the plans
over the written relation answer the new version from the cache, and
re-plan only when its planning facts differ.  World-table growth bumps
the version and evicts nothing.
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
from repro.relational.optimizer import refresh_statistics
from repro.relational.relation import Relation
from repro.sql import execute_sql

from tests.conftest import build_vehicles_udb, partition_relation


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
    def test_replace_partitions_keeps_plans_whose_facts_hold(self):
        udb = build_vehicles_udb()
        tank, friend = warm(udb, q_type(), q_faction())
        version = udb.catalog_version
        invalidations = plan_cache_stats()["invalidations"]

        # a write: the type partition's next version, without the Tank rows
        id_part, type_part, faction_part = udb.partitions("r")
        old = type_part.relation
        position = old.schema.resolve("type")
        tanks = [i for i, row in enumerate(old.rows) if row[position] == "Tank"]
        no_tanks = URelation(
            old.with_deleted(tanks),
            type_part.d_width,
            type_part.tid_names,
            type_part.value_names,
        )
        udb.replace_partitions("r", [id_part, no_tanks, faction_part])

        assert udb.catalog_version > version
        assert plan_cache_stats()["invalidations"] == invalidations
        # both plans survived: the faction query's answer is unchanged, the
        # type query's plan answers the new version and sees no tank
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert len(execute_query(q_type(), udb)) == 0 < len(tank)
        assert plan_cache_stats()["hits"] == hits + 2

        # a replacement built from scratch carries no index definition and
        # new statistics: the type query re-plans, the faction one still hits
        fresh = URelation(
            Relation(old.schema, old.rows),
            type_part.d_width,
            type_part.tid_names,
            type_part.value_names,
        )
        udb.replace_partitions("r", [id_part, fresh, faction_part])
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        stats = plan_cache_stats()
        assert stats["misses"] == misses + 1
        assert stats["invalidations"] == invalidations + 1

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

    def test_refresh_statistics_evicts_dependents_only(self):
        udb = build_vehicles_udb()
        tank, friend = warm(udb, q_type(), q_faction())
        version = udb.catalog_version
        refresh_statistics(partition_relation(udb, "u_r_type"))
        assert udb.catalog_version > version
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["misses"] == misses + 1

    def test_world_growth_bumps_the_version_and_evicts_nothing(self):
        udb = build_vehicles_udb()
        (tank,) = warm(udb, q_type())
        version = udb.catalog_version
        invalidations = plan_cache_stats()["invalidations"]
        udb.world_table.add_variable("v_new", [1, 2])
        assert udb.catalog_version > version  # growth bumps immediately
        # no plan depends on `w` as a scanned relation, so none is stale:
        # nothing is evicted and a partition query still hits
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["hits"] == hits + 1
        assert plan_cache_stats()["invalidations"] == invalidations

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
