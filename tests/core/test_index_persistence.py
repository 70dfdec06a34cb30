"""Auto-indexing policy and index persistence.

* ``UDatabase`` auto-creates a hash index on every partition's tuple-id
  column plus sorted indexes on the value columns (and a Var index on the
  world table through ``to_database``).
* ``save_udatabase`` records index definitions in ``indexes.csv``;
  ``load_udatabase`` rebuilds them (and tolerates directories written
  before the index subsystem existed).
* Indexed and index-free execution agree on translated queries.
"""

from __future__ import annotations

import pytest

from repro.core.descriptor import Descriptor
from repro.core.persist import load_udatabase, save_udatabase
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.core.worldtable import WorldTable
from repro.relational.index import ensure_index, indexes_on
from repro.sql import execute_sql


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

    def test_to_database_registers_indexes_and_w(self):
        udb = small_udb()
        db = udb.to_database()
        assert "idx_u_r_id_tid" in db.indexes
        assert "idx_u_r_kind_tid" in db.indexes
        assert "idx_w_var" in db.indexes
        assert db.indexes.table_of("idx_w_var") == "w"

    def test_w_snapshot_refreshed_only_on_world_change(self):
        udb = small_udb()
        db = udb.to_database()
        w_before = db.get("w")
        assert udb.to_database().get("w") is w_before  # cached: no mutation
        udb.world_table.add_variable("y", [1, 2, 3])
        w_after = udb.to_database().get("w")
        assert w_after is not w_before
        assert ("y", 2) in w_after.rows

    def test_to_database_cached_and_invalidated(self):
        udb = small_udb()
        db1 = udb.to_database()
        assert udb.to_database() is db1
        extra = URelation.build(
            [(Descriptor(), 1, (5,))], tid_column("s"), ["n"]
        )
        udb.add_relation("s", ["n"], [extra])
        db2 = udb.to_database()
        assert db2 is not db1
        assert "u_s_n" in db2


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
    @pytest.mark.parametrize("mode", ["rows", "columns"])
    def test_translated_query_same_answers(self, mode):
        from repro.core import execute_query
        from repro.sql import parse

        udb = small_udb()
        query = parse("possible (select id from r where kind = 'a')")
        with_idx = execute_query(udb=udb, query=query, mode=mode, use_indexes=True)
        without = execute_query(udb=udb, query=query, mode=mode, use_indexes=False)
        assert with_idx == without

    def test_tpch_smoke_same_answers(self):
        from repro.core import execute_query
        from repro.tpch import q1, q2, q3
        from repro.ugen import generate_uncertain

        bundle = generate_uncertain(scale=0.0005, x=0.01, z=0.25, seed=7)
        for builder in (q1, q2, q3):
            query = builder()
            assert execute_query(query, bundle.udb, use_indexes=True) == execute_query(
                query, bundle.udb, use_indexes=False
            )
