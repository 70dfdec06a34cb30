"""Tests for UDatabase: catalog, index DDL, semantics, validity, world
enumeration."""

import pytest

from repro.core import Descriptor, UDatabase, URelation, WorldTable
from repro.core.urelation import tid_column
from repro.relational.index import built_indexes_on, indexes_on
from repro.relational.relation import Relation
from repro.relational.schema import SchemaError
from repro.sql import execute_sql

from tests.conftest import partition_relation


class TestConstruction:
    def test_vehicles_fixture(self, vehicles_udb):
        assert vehicles_udb.relation_names() == ["r"]
        assert vehicles_udb.world_count() == 8
        assert len(vehicles_udb.partitions("r")) == 3

    def test_partition_tid_name_enforced(self):
        udb = UDatabase(WorldTable())
        bad = URelation.build([(Descriptor(), 1, ("a",))], "tid_wrong", ["v"])
        with pytest.raises(ValueError, match="tid column"):
            udb.add_relation("r", ["v"], [bad])

    def test_coverage_enforced(self):
        udb = UDatabase(WorldTable())
        part = URelation.build([(Descriptor(), 1, ("a",))], tid_column("r"), ["v"])
        with pytest.raises(ValueError, match="cover"):
            udb.add_relation("r", ["v", "w"], [part])

    def test_unknown_attributes_rejected(self):
        udb = UDatabase(WorldTable())
        part = URelation.build([(Descriptor(), 1, ("a",))], tid_column("r"), ["v"])
        with pytest.raises(ValueError, match="unknown"):
            udb.add_relation("r", [], [part])

    def test_from_certain(self):
        udb = UDatabase.from_certain(
            {"r": Relation(["a", "b"], [(1, "x"), (2, "y")])}
        )
        assert udb.world_count() == 1
        _, instances = next(udb.worlds())
        assert sorted(instances["r"].rows) == [(1, "x"), (2, "y")]

    def test_unknown_relation_raises(self, vehicles_udb):
        with pytest.raises(KeyError):
            vehicles_udb.partitions("nope")

    def test_partition_labels(self, vehicles_udb):
        parts = vehicles_udb.partitions("r")
        assert partition_relation(vehicles_udb, "u_r_id") is parts[0].relation
        assert partition_relation(vehicles_udb, "u_r_type") is parts[1].relation

    def test_total_representation_rows(self, vehicles_udb):
        # 6 + 5 + 5 partition rows + 7 world-table rows (3 vars x 2 + trivial)
        assert vehicles_udb.total_representation_rows() == 23


def one_column(name: str, attribute: str, values) -> URelation:
    """A certain one-attribute partition of ``name`` (tids 1, 2, ...)."""
    return URelation.build(
        [(Descriptor(), tid, (value,)) for tid, value in enumerate(values, 1)],
        tid_column(name),
        [attribute],
    )


class TestCatalog:
    def test_names_sorted(self):
        udb = UDatabase(WorldTable())
        udb.add_relation("s", ["v"], [one_column("s", "v", [1])])
        udb.add_relation("q", ["v"], [one_column("q", "v", [2])])
        assert udb.relation_names() == ["q", "s"]

    def test_missing_relation_message_lists_names(self, vehicles_udb):
        with pytest.raises(KeyError, match=r"have \['r'\]"):
            vehicles_udb.logical_schema("nope")

    def test_partitions_returns_a_copy(self, vehicles_udb):
        vehicles_udb.partitions("r").clear()
        assert len(vehicles_udb.partitions("r")) == 3

    def test_replace(self, vehicles_udb):
        version = vehicles_udb.catalog_version
        replacement = one_column("r", "id", [7, 8])
        vehicles_udb.add_relation("r", ["id"], [replacement])
        assert vehicles_udb.logical_schema("r").attributes == ("id",)
        assert vehicles_udb.partitions("r") == [replacement]
        assert vehicles_udb.catalog_version > version
        _, instances = next(vehicles_udb.worlds())
        assert sorted(instances["r"].rows) == [(7,), (8,)]

    def test_failed_replacement_leaves_catalog_untouched(self, vehicles_udb):
        # validation precedes every catalog mutation
        relations = [part.relation for part in vehicles_udb.partitions("r")]
        defs = vehicles_udb.index_defs()
        version = vehicles_udb.catalog_version
        with pytest.raises(ValueError, match="cover"):
            vehicles_udb.add_relation(
                "r", ["id", "type", "faction"], [one_column("r", "id", [1])]
            )
        assert [part.relation for part in vehicles_udb.partitions("r")] == relations
        assert vehicles_udb.logical_schema("r").attributes == ("id", "type", "faction")
        assert vehicles_udb.index_defs() == defs
        assert vehicles_udb.catalog_version == version

    def test_replacement_drops_the_old_partitions_indexes(self, vehicles_udb):
        vehicles_udb.create_index("mine", "u_r_type", ["type"])
        vehicles_udb.add_relation(
            "r", ["id", "type"], [one_column("r", "id", [1]), one_column("r", "type", ["x"])]
        )
        names = [defined[1] for defined in vehicles_udb.index_defs()]
        assert "mine" not in names
        # the new partitions get the auto-index definitions afresh
        assert "idx_u_r_type_type" in names


class TestIndexDDL:
    """``create_index`` / ``drop_index`` / ``index_defs``: index DDL over
    partitions addressed by their ``u_<rel>_<attrs>`` label."""

    def test_create_and_drop(self, vehicles_udb):
        relation = partition_relation(vehicles_udb, "u_r_type")
        index = vehicles_udb.create_index("mine", "u_r_type", ["type"])
        assert index.relation is relation
        assert index in indexes_on(relation)
        assert ("u_r_type", "mine", ("type",), "hash") in vehicles_udb.index_defs()
        vehicles_udb.drop_index("mine")
        assert index not in indexes_on(relation)
        assert "mine" not in [defined[1] for defined in vehicles_udb.index_defs()]

    def test_idempotent_create(self, vehicles_udb):
        a = vehicles_udb.create_index("mine", "u_r_type", ["type"], kind="sorted")
        b = vehicles_udb.create_index("mine", "u_r_type", ["type"], kind="sorted")
        assert a is b

    def test_duplicate_name_rejected(self, vehicles_udb):
        vehicles_udb.create_index("mine", "u_r_type", ["type"])
        with pytest.raises(KeyError, match="already exists"):
            vehicles_udb.create_index("mine", "u_r_type", ["tid_r"])
        assert vehicles_udb.index_defs("u_r_type")[-1] == (
            "u_r_type", "mine", ("type",), "hash",
        )

    def test_unknown_table_lists_labels(self, vehicles_udb):
        with pytest.raises(KeyError, match=r"have \['u_r_faction', 'u_r_id', 'u_r_type'\]"):
            vehicles_udb.create_index("mine", "r", ["type"])

    def test_unknown_column_rejected_and_nothing_recorded(self, vehicles_udb):
        defs = vehicles_udb.index_defs()
        version = vehicles_udb.catalog_version
        with pytest.raises(SchemaError, match="nope"):
            vehicles_udb.create_index("mine", "u_r_type", ["nope"])
        assert vehicles_udb.index_defs() == defs
        assert vehicles_udb.catalog_version == version

    def test_drop_unknown_lists_names(self, vehicles_udb):
        with pytest.raises(KeyError, match="have .*idx_u_r_id_tid"):
            vehicles_udb.drop_index("nope")

    def test_definitions_and_names(self, vehicles_udb):
        vehicles_udb.create_index("a", "u_r_id", ["id"])
        vehicles_udb.create_index("b", "u_r_id", ["tid_r"], kind="sorted")
        assert vehicles_udb.index_defs("u_r_id") == [
            ("u_r_id", "a", ("id",), "hash"),
            ("u_r_id", "b", ("tid_r",), "sorted"),
            ("u_r_id", "idx_u_r_id_id", ("id",), "sorted"),
            ("u_r_id", "idx_u_r_id_tid", ("tid_r",), "hash"),
        ]
        # the unfiltered list is the per-partition lists, sorted by label
        assert vehicles_udb.index_defs() == sorted(
            vehicles_udb.index_defs("u_r_faction")
            + vehicles_udb.index_defs("u_r_id")
            + vehicles_udb.index_defs("u_r_type")
        )

    def test_index_follows_its_partition_through_a_write(self, vehicles_udb):
        vehicles_udb.create_index("mine", "u_r_type", ["type"])
        old = partition_relation(vehicles_udb, "u_r_type")
        execute_sql("insert into r values (9, 'Tank', 'Friend')", vehicles_udb)
        new = partition_relation(vehicles_udb, "u_r_type")
        assert new is not old
        (index,) = [i for i in built_indexes_on(new) if i.name == "mine"]
        assert index.relation is new
        position = new.schema.resolve("type")
        assert list(index.lookup("Tank")) == [
            row for row in new.rows if row[position] == "Tank"
        ]


class TestSemantics:
    def test_instantiate_one_world(self, vehicles_udb):
        world = vehicles_udb.instantiate(
            {"x": 1, "y": 1, "z": 1, "_t": 0}, "r"
        )
        assert set(world.rows) == {
            (1, "Tank", "Friend"),
            (2, "Transport", "Friend"),
            (3, "Tank", "Enemy"),
            (4, "Tank", "Friend"),
        }

    def test_eight_distinct_worlds(self, vehicles_udb):
        worlds = {frozenset(inst["r"].rows) for _, inst in vehicles_udb.worlds()}
        assert len(worlds) == 8

    def test_partial_tuples_dropped(self):
        w = WorldTable({"x": [1, 2]})
        # tuple t2 only gets attribute A when x=1; B is never defined for it
        u_a = URelation.build(
            [(Descriptor(), "t1", ("a1",)), (Descriptor(x=1), "t2", ("a2",))],
            tid_column("r"),
            ["A"],
        )
        u_b = URelation.build(
            [(Descriptor(), "t1", ("b1",))], tid_column("r"), ["B"]
        )
        udb = UDatabase(w)
        udb.add_relation("r", ["A", "B"], [u_a, u_b])
        for _val, inst in udb.worlds():
            assert inst["r"].rows == [("a1", "b1")]

    def test_world_relations_helper(self, vehicles_udb):
        instances = vehicles_udb.world_relations({"x": 2, "y": 2, "z": 2, "_t": 0})
        assert (3, "Transport", "Friend") in instances["r"].rows


class TestValidity:
    def test_vehicles_valid(self, vehicles_udb):
        assert vehicles_udb.is_valid()

    def test_example_2_3_invalid(self):
        """The paper's Example 2.3: contradictory values for a shared field."""
        w = WorldTable({"c1": [1, 2], "c2": [1, 2]})
        u1 = URelation.build(
            [(Descriptor(c1=1), "t1", ("a", "b"))], tid_column("r"), ["A", "B"]
        )
        u2 = URelation.build(
            [(Descriptor(c2=2), "t1", ("b'", "c"))], tid_column("r"), ["B", "C"]
        )
        udb = UDatabase(w)
        udb.add_relation("r", ["A", "B", "C"], [u1, u2])
        assert not udb.is_valid()

    def test_overlap_with_agreement_valid(self):
        w = WorldTable({"c1": [1, 2]})
        u1 = URelation.build(
            [(Descriptor(c1=1), "t1", ("a", "b"))], tid_column("r"), ["A", "B"]
        )
        u2 = URelation.build(
            [(Descriptor(c1=1), "t1", ("b", "c"))], tid_column("r"), ["B", "C"]
        )
        udb = UDatabase(w)
        udb.add_relation("r", ["A", "B", "C"], [u1, u2])
        assert udb.is_valid()

    def test_inconsistent_descriptors_never_conflict(self):
        w = WorldTable({"c1": [1, 2]})
        u1 = URelation.build(
            [(Descriptor(c1=1), "t1", ("b",))], tid_column("r"), ["B"]
        )
        u2 = URelation.build(
            [(Descriptor(c1=2), "t1", ("b'",))], tid_column("r"), ["B"]
        )
        udb = UDatabase(w)
        udb.add_relation("r", ["B"], [u1, u2])
        assert udb.is_valid()  # never in the same world

    def test_instantiate_detects_conflicts(self):
        w = WorldTable({"c1": [1, 2], "c2": [1, 2]})
        u1 = URelation.build(
            [(Descriptor(c1=1), "t1", ("a", "b"))], tid_column("r"), ["A", "B"]
        )
        u2 = URelation.build(
            [(Descriptor(c2=2), "t1", ("b'", "c"))], tid_column("r"), ["B", "C"]
        )
        udb = UDatabase(w)
        udb.add_relation("r", ["A", "B", "C"], [u1, u2])
        with pytest.raises(ValueError, match="invalid"):
            udb.instantiate({"c1": 1, "c2": 2, "_t": 0}, "r")
