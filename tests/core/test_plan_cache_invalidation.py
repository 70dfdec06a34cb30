"""The invalidation test matrix for the prepared-plan cache (UDatabase).

A cached plan goes stale in one way: a planning fact of a version it
reads differs from the one it was built on.  ``CREATE INDEX``, ``DROP
INDEX`` (of a built index or an unbuilt definition) and a
statistics refresh change a fact of a partition in place: they drop the
facts memoized on it, and exactly the dependent entries re-plan at their
next lookup — a stale-plan execution must be impossible to observe, and
unrelated cached plans must keep hitting.  A lazy index build gives
listed definitions their handles, changes no fact and re-plans
nothing; re-registering the same partitions re-plans nothing either.  A
write — a statement's or a COMMIT's staged catalog, published with one
``UDatabase.publish`` — moves the catalog version and evicts nothing: the
plans over the written relation answer the new version from the cache,
and re-plan only when its planning facts differ.  World-table growth
moves the version and evicts nothing.
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
from repro.core.descriptor import TOP_VARIABLE
from repro.core.translate import execute_query, reference_query
from repro.relational import col, lit, plan_cache_stats
from repro.relational import plancache
from repro.relational.index import built_indexes_on, indexes_on
from repro.relational.optimizer import refresh_statistics
from repro.relational.relation import Relation
from repro.sql import execute_sql, parse

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
    def test_a_publish_keeps_plans_whose_facts_hold(self):
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
        udb.publish({"r": [id_part, no_tanks, faction_part]})

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
        udb.publish({"r": [id_part, fresh, faction_part]})
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        stats = plan_cache_stats()
        assert stats["misses"] == misses + 1
        assert stats["invalidations"] == invalidations + 1

    def test_create_index_replans_dependents_only(self):
        udb = build_vehicles_udb()
        tank, friend = warm(udb, q_type(), q_faction())
        invalidations = plan_cache_stats()["invalidations"]
        execute_sql("create index idx_extra on u_r_type (type) using hash", udb)
        # faction survived, type re-plans (it may now use the index)
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["misses"] == misses + 1
        assert plan_cache_stats()["invalidations"] == invalidations + 1

    def test_drop_index_replans_dependents_only(self):
        udb = build_vehicles_udb()
        execute_sql("create index idx_extra on u_r_type (type) using hash", udb)
        tank, friend = warm(udb, q_type(), q_faction())
        execute_sql("drop index idx_extra", udb)
        hits = plan_cache_stats()["hits"]
        assert execute_query(q_faction(), udb) == friend
        assert plan_cache_stats()["hits"] == hits + 1
        misses = plan_cache_stats()["misses"]
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["misses"] == misses + 1

    def test_refresh_statistics_replans_dependents_only(self):
        udb = build_vehicles_udb()
        tank, friend = warm(udb, q_type(), q_faction())
        refresh_statistics(partition_relation(udb, "u_r_type"))
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

    def test_lazy_partition_index_first_build_replans_nothing(self):
        """The lazy auto-index build gives listed definitions their
        handles: the definition set — the planning fact — is the same,
        so the version stays and the plan stored by the planning that
        built them still hits."""
        w = WorldTable({"x": [1, 2]})
        part = URelation.build(
            [(Descriptor(), f"t{i}", (i % 4,)) for i in range(16)],
            tid_name="tid_s",
            value_names=["v"],
        )
        udb = UDatabase(w)  # the auto-index policy, nothing built
        udb.add_relation("s", ["v"], [part])
        query = Poss(USelect(Rel("s"), col("v").eq(lit(1))))
        # the reference chooses no access path: it builds nothing
        reference = reference_query(query, udb)
        assert built_indexes_on(part.relation) == ()
        version = udb.catalog_version
        size = plan_cache_stats()["size"]

        # the first planning builds every definition
        indexed = execute_query(query, udb)
        assert indexes_on(part.relation)  # now built
        assert udb.catalog_version == version
        assert indexed == reference
        # the entry it stored, over the facts read before the build, still hits
        stats = plan_cache_stats()
        assert execute_query(query, udb) == reference
        after = plan_cache_stats()
        assert (after["hits"], after["misses"]) == (stats["hits"] + 1, stats["misses"])
        assert after["invalidations"] == stats["invalidations"]
        assert after["size"] == size + 1

    def test_add_relation_replacement_replans_a_new_layout_only(self):
        udb = build_vehicles_udb()
        (tank,) = warm(udb, q_type())
        version = udb.catalog_version
        # re-register r with the same partitions: the same facts, a hit
        udb.add_relation("r", ["id", "type", "faction"], udb.partitions("r"))
        assert udb.catalog_version > version
        stats = plan_cache_stats()
        assert execute_query(q_type(), udb) == tank
        assert plan_cache_stats()["hits"] == stats["hits"] + 1
        assert plan_cache_stats()["misses"] == stats["misses"]
        # a different layout: ``type`` moves into a partition with
        # ``faction``, the label the plan reads is gone, and it re-plans
        type_faction = URelation.build(
            [(Descriptor(), tid, ("Tank", "Friend")) for tid in "abcd"],
            tid_name="tid_r",
            value_names=["type", "faction"],
        )
        udb.add_relation("r", ["id", "type", "faction"], [udb.partitions("r")[0], type_faction])
        assert "u_r_type" not in udb.catalog().versions
        stats = plan_cache_stats()
        assert execute_query(q_type(), udb) == tank
        after = plan_cache_stats()
        assert after["misses"] == stats["misses"] + 1
        assert after["invalidations"] == stats["invalidations"] + 1

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


def _create_index(udb, relation):
    execute_sql("create index idx_extra on u_r_type (type) using hash", udb)


def _drop_built_index(udb, relation):
    udb.drop_index("idx_extra")


def _drop_auto_index_definition(udb, relation):
    udb.drop_index("idx_u_r_type_type")


def _refresh_statistics(udb, relation):
    refresh_statistics(relation)


@pytest.mark.parametrize(
    "change",
    [_create_index, _drop_built_index, _drop_auto_index_definition, _refresh_statistics],
    ids=["create index", "drop built index", "drop auto-index definition", "analyze"],
)
def test_every_definition_set_change_refreshes_the_facts(change):
    """After each in-place change the facts memoized on the live version
    are the ones a fresh computation reads, and differ from before it."""
    udb = build_vehicles_udb()  # auto-index definitions listed, none built
    if change is _drop_built_index:
        _create_index(udb, None)
    relation = partition_relation(udb, "u_r_type")
    probes = ((0, TOP_VARIABLE),)  # translation's question: is c1 all ⊤?
    before = plancache.planning_facts(relation, probes)
    assert plancache.planning_facts(relation, probes) is before  # memoized
    change(udb, relation)
    assert partition_relation(udb, "u_r_type") is relation  # changed in place
    after = plancache.planning_facts(relation, probes)
    assert after == plancache._compute_facts(relation, probes)
    assert after != before


def test_a_definition_dropped_before_any_handle_exists():
    """``DROP INDEX`` of a definition no handle was built for: it leaves
    the definitions, the facts and every plan after it, and nothing ever
    builds it."""
    udb = build_vehicles_udb()
    relation = partition_relation(udb, "u_r_type")
    assert built_indexes_on(relation) == ()
    udb.drop_index("idx_u_r_type_type")
    assert built_indexes_on(relation) == ()
    probes = ((0, TOP_VARIABLE),)
    facts = plancache.planning_facts(relation, probes)
    assert facts == plancache._compute_facts(relation, probes)
    assert [d.name for d in facts[1]] == ["idx_u_r_type_tid"]
    sql = "possible (select id from r where type = 'Tank')"
    assert execute_sql(sql, udb) == reference_query(parse(sql), udb)
    assert [i.name for i in built_indexes_on(relation)] == ["idx_u_r_type_tid"]
    assert "idx_u_r_type_type" not in [d[1] for d in udb.index_defs()]
