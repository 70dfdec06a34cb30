"""Auto-indexing policy and index persistence.

* ``UDatabase`` auto-creates a hash index on every partition's tuple-id
  column plus sorted indexes on the value columns, built on first planner
  access only.
* ``save_udatabase`` records the partitions' index definitions in
  ``indexes.csv``; ``load_udatabase`` defers exactly those (and gives a
  directory written before the index subsystem existed the auto policy).
* Indexed and index-free execution agree on translated queries.
"""

from __future__ import annotations

import pytest

from repro.core.descriptor import Descriptor
from repro.core.persist import load_udatabase, save_udatabase
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.core.worldtable import WorldTable
from repro.relational.index import built_indexes_on, ensure_index, indexes_on
from repro.sql import execute_sql

from tests.conftest import partition_relation


def small_udb() -> UDatabase:
    world = WorldTable()
    world.add_variable("x", [1, 2])
    udb = UDatabase(world)
    id_part = URelation.build(
        [(Descriptor(), t, (t * 10,)) for t in (1, 2, 3)],
        tid_column("r"),
        ["id"],
    )
    kind_part = URelation.build(
        [
            (Descriptor({"x": 1}), 1, ("a",)),
            (Descriptor({"x": 2}), 1, ("b",)),
            (Descriptor(), 2, ("a",)),
            (Descriptor(), 3, ("b",)),
        ],
        tid_column("r"),
        ["kind"],
    )
    udb.add_relation("r", ["id", "kind"], [id_part, kind_part])
    return udb


class TestAutoIndexing:
    def test_partitions_get_tid_and_value_indexes(self):
        udb = small_udb()
        for part in udb.partitions("r"):
            kinds = {(i.kind, i.columns) for i in indexes_on(part.relation)}
            assert ("hash", (tid_column("r"),)) in kinds
            value_kinds = {c for k, cols in kinds if k == "sorted" for c in cols}
            assert set(part.value_names) <= value_kinds

    def test_auto_index_disabled(self):
        world = WorldTable()
        udb = UDatabase(world, auto_index=False)
        part = URelation.build(
            [(Descriptor(), 1, (1,))], tid_column("r"), ["id"]
        )
        udb.add_relation("r", ["id"], [part])
        assert indexes_on(part.relation) == ()

    def test_partition_lookup_builds_nothing(self):
        udb = small_udb()
        defs = udb.index_defs()
        # a label names the live relation object ...
        for label, part in zip(("u_r_id", "u_r_kind"), udb.partitions("r")):
            assert partition_relation(udb, label) is part.relation
            # ... and looking it up builds nothing deferred
            assert built_indexes_on(part.relation) == ()
        assert udb.index_defs() == defs


class TestPersistence:
    def test_round_trip_rebuilds_indexes(self, tmp_path):
        udb = small_udb()
        # a user-created index beyond the auto policy
        part = udb.partitions("r")[0]
        ensure_index(part.relation, ["id"], kind="hash", name="idx_custom_id_hash")
        save_udatabase(udb, tmp_path)
        assert (tmp_path / "indexes.csv").exists()

        loaded = load_udatabase(tmp_path)
        for part in loaded.partitions("r"):
            kinds = {(i.kind, i.columns) for i in indexes_on(part.relation)}
            assert ("hash", (tid_column("r"),)) in kinds
        id_part = next(
            p for p in loaded.partitions("r") if p.value_names == ("id",)
        )
        assert ("hash", ("id",)) in {
            (i.kind, i.columns) for i in indexes_on(id_part.relation)
        }

    def test_a_dropped_auto_index_stays_dropped(self, tmp_path):
        # at the parent, load auto-deferred the policy's definitions on top
        # of whatever indexes.csv said, so the dropped index came back
        udb = small_udb()
        execute_sql("drop index idx_u_r_id_id", udb)
        execute_sql("create index mine on u_r_kind (kind) using sorted", udb)
        udb.drop_index("idx_u_r_kind_kind")  # the twin of `mine`, never built
        defs = udb.index_defs()
        assert ("u_r_kind", "mine", ("kind",), "sorted") in defs
        assert "idx_u_r_id_id" not in [d[1] for d in defs]
        built = {
            id(p.relation): built_indexes_on(p.relation) for p in udb.partitions("r")
        }
        save_udatabase(udb, tmp_path)
        for part in udb.partitions("r"):  # save built nothing
            assert built_indexes_on(part.relation) == built[id(part.relation)]
        loaded = load_udatabase(tmp_path)
        assert loaded.index_defs() == defs
        for part in loaded.partitions("r"):  # load built nothing
            assert built_indexes_on(part.relation) == ()
        # a second round trip of the all-pending database: still the same
        save_udatabase(loaded, tmp_path)
        assert load_udatabase(tmp_path).index_defs() == defs
        # relations added after the load get the auto policy again
        extra = URelation.build([(Descriptor(), 1, (5,))], tid_column("s"), ["n"])
        loaded.add_relation("s", ["n"], [extra])
        assert len(loaded.index_defs("u_s_n")) == 2

    def test_world_index_rows_of_an_older_save_are_ignored(self, tmp_path):
        udb = small_udb()
        save_udatabase(udb, tmp_path)
        with open(tmp_path / "indexes.csv", "a", encoding="utf-8") as handle:
            handle.write("w.csv,idx_w_var,var,hash\r\nw.csv,idx_w_rng,rng,hash\r\n")
        loaded = load_udatabase(tmp_path)
        assert loaded.index_defs() == udb.index_defs()

    def test_create_index_on_a_loaded_database_builds_one_index(self, tmp_path):
        # at the parent the DDL's catalog mirror registered, and thereby
        # built, every deferred index of every partition (124 + 1 on the
        # benchmark's tpch fixture: 836 ms for an index over 25 rows)
        from repro.ugen import generate_uncertain

        udb = generate_uncertain(scale=0.0005, x=0.01, z=0.25, seed=7).udb
        save_udatabase(udb, tmp_path)
        loaded = load_udatabase(tmp_path)
        assert len(loaded.index_defs()) > 100
        execute_sql("create index mine on u_nation_name (name)", loaded)
        built = [
            index.name
            for name in loaded.relation_names()
            for part in loaded.partitions(name)
            for index in built_indexes_on(part.relation)
        ]
        assert built == ["mine"]

    def test_load_without_indexes_csv(self, tmp_path):
        udb = small_udb()
        save_udatabase(udb, tmp_path)
        (tmp_path / "indexes.csv").unlink()
        loaded = load_udatabase(tmp_path)  # pre-index directories still load
        # auto policy still applies on load
        for part in loaded.partitions("r"):
            assert indexes_on(part.relation)

    def test_round_trip_preserves_data_and_answers(self, tmp_path):
        udb = small_udb()
        save_udatabase(udb, tmp_path)
        loaded = load_udatabase(tmp_path)
        query = "possible (select id, kind from r where kind = 'a')"
        assert execute_sql(query, loaded) == execute_sql(query, udb)


class TestIndexedExecutionAgrees:
    """The executor, with its access paths, answers what the reference
    (no index) does."""

    def test_translated_query_same_answers(self):
        from repro.core import execute_query, reference_query
        from repro.sql import parse

        udb = small_udb()
        query = parse("possible (select id from r where kind = 'a')")
        assert execute_query(query, udb) == reference_query(query, udb)

    def test_tpch_smoke_same_answers(self):
        from repro.core import execute_query, reference_query
        from repro.tpch import q1, q2, q3
        from repro.ugen import generate_uncertain

        bundle = generate_uncertain(scale=0.0005, x=0.01, z=0.25, seed=7)
        for builder in (q1, q2, q3):
            query = builder()
            assert execute_query(query, bundle.udb) == reference_query(query, bundle.udb)
