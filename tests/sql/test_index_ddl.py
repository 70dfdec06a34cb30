"""CREATE INDEX / DROP INDEX through the SQL layer."""

from __future__ import annotations

import pytest

from repro.core.descriptor import Descriptor
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.core.worldtable import WorldTable
from repro.relational.index import built_indexes_on, indexes_on
from repro.sql import CreateIndex, DropIndex, SqlSyntaxError, execute_sql, parse
from tests.conftest import build_vehicles_udb


class TestParsing:
    def test_create_index_default_kind(self):
        stmt = parse("CREATE INDEX idx_a ON u_r_id (id)")
        assert stmt == CreateIndex("idx_a", "u_r_id", ("id",), "hash")

    def test_create_index_multi_column_sorted(self):
        stmt = parse("create index i on t (a, b) using sorted")
        assert stmt == CreateIndex("i", "t", ("a", "b"), "sorted")

    def test_create_index_using_hash(self):
        assert parse("create index i on t (a) using hash").kind == "hash"

    def test_drop_index(self):
        assert parse("DROP INDEX idx_a") == DropIndex("idx_a")

    def test_bad_kind_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("create index i on t (a) using btree")

    def test_missing_pieces_rejected(self):
        for sql in (
            "create index on t (a)",
            "create index i t (a)",
            "create index i on t",
            "drop index",
            "create index i on t (a) trailing",
        ):
            with pytest.raises(SqlSyntaxError):
                parse(sql)

    def test_queries_still_parse(self):
        from repro.core.query import Poss

        stmt = parse("possible (select id from r where id > 1)")
        assert isinstance(stmt, Poss)


def small_udb() -> UDatabase:
    world = WorldTable()
    world.add_variable("x", [1, 2])
    udb = UDatabase(world, auto_index=False)
    part = URelation.build(
        [
            (Descriptor({"x": 1}), 1, (10,)),
            (Descriptor({"x": 2}), 1, (11,)),
            (Descriptor(), 2, (20,)),
        ],
        tid_column("r"),
        ["id"],
    )
    udb.add_relation("r", ["id"], [part])
    return udb


class TestExecution:
    def test_create_register_and_drop(self):
        udb = small_udb()
        index = execute_sql("create index idx_r_id on u_r_id (id) using sorted", udb)
        assert index.kind == "sorted"
        relation = udb.partitions("r")[0].relation
        assert udb.index_defs() == [("u_r_id", "idx_r_id", ("id",), "sorted")]
        assert index in indexes_on(relation)
        execute_sql("drop index idx_r_id", udb)
        assert udb.index_defs() == []
        assert index not in indexes_on(relation)

    def test_recreate_identical_is_idempotent(self):
        udb = small_udb()
        a = execute_sql("create index i on u_r_id (id)", udb)
        b = execute_sql("create index i on u_r_id (id)", udb)
        assert a is b

    def test_name_collision_with_different_definition_errors(self):
        udb = small_udb()
        execute_sql("create index i on u_r_id (id)", udb)
        with pytest.raises(KeyError):
            execute_sql("create index i on u_r_id (id) using sorted", udb)

    def test_drop_unknown_raises(self):
        with pytest.raises(KeyError):
            execute_sql("drop index nope", small_udb())

    def test_create_on_unknown_table_raises(self):
        with pytest.raises(KeyError):
            execute_sql("create index i on missing (id)", small_udb())

    def test_index_used_by_subsequent_query(self):
        udb = small_udb()
        before = execute_sql("possible (select id from r where id = 10)", udb)
        execute_sql("create index idx_r_id on u_r_id (id)", udb)
        after = execute_sql("possible (select id from r where id = 10)", udb)
        assert before == after
        # the planner can now see the access path on the partition scan
        part = udb.partitions("r")[0]
        assert any(i.columns == ("id",) for i in indexes_on(part.relation))

    def test_world_table_refused_by_name(self):
        # at the parent this attached an index to a snapshot no plan scans,
        # and the next write to any relation silently dropped it
        udb = small_udb()
        with pytest.raises(ValueError, match="no plan scans"):
            execute_sql("create index idx_w on w (var)", udb)
        with pytest.raises(ValueError, match="no plan scans"):
            udb.session().execute("create index idx_w on w (rng)")

    def test_name_is_unique_across_partitions(self):
        udb = build_vehicles_udb()
        execute_sql("create index i on u_r_id (id)", udb)
        with pytest.raises(KeyError, match="index 'i' already exists"):
            execute_sql("create index i on u_r_type (type)", udb)
        # a pending auto-index name is taken too
        with pytest.raises(KeyError, match="already exists"):
            execute_sql("create index idx_u_r_type_tid on u_r_id (id)", udb)

    def test_create_builds_only_the_named_index(self):
        udb = build_vehicles_udb()  # auto-index definitions still pending
        before = udb.index_defs()
        index = execute_sql("create index mine on u_r_type (type)", udb)
        built = {
            label: [i.name for i in built_indexes_on(part.relation)]
            for label, part in zip(
                ("u_r_id", "u_r_type", "u_r_faction"), udb.partitions("r")
            )
        }
        assert built == {"u_r_id": [], "u_r_type": ["mine"], "u_r_faction": []}
        assert udb.index_defs() == sorted(
            before + [("u_r_type", "mine", ("type",), "hash")]
        )
        # naming a still-pending definition builds that one, and only it
        again = execute_sql(
            "create index idx_u_r_type_type on u_r_type (type) using sorted", udb
        )
        assert again.name == "idx_u_r_type_type"
        relation = udb.partitions("r")[1].relation
        assert [i.name for i in built_indexes_on(relation)] == [
            "mine", "idx_u_r_type_type",
        ]
        assert udb.index_defs() == sorted(
            before + [("u_r_type", "mine", ("type",), "hash")]
        )
        assert index in built_indexes_on(relation)

    def test_drop_of_a_pending_definition_builds_nothing(self):
        udb = build_vehicles_udb()
        execute_sql("drop index idx_u_r_type_type", udb)
        assert all(
            built_indexes_on(part.relation) == () for part in udb.partitions("r")
        )
        assert "idx_u_r_type_type" not in [d[1] for d in udb.index_defs()]
        # and the planner never builds it afterwards
        execute_sql("possible (select id from r where type = 'Tank')", udb)
        relation = udb.partitions("r")[1].relation
        assert [i.name for i in built_indexes_on(relation)] == ["idx_u_r_type_tid"]
