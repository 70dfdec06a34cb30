"""Tests for lazy auto-indexing and its persistence."""

from __future__ import annotations

from repro.core import UDatabase, execute_query
from repro.core.persist import load_udatabase, save_udatabase
from repro.core.query import Poss, Rel, UProject, USelect
from repro.relational import Relation
from repro.relational.expressions import col, lit
from repro.relational.index import (
    built_indexes_on,
    index_def,
    index_defs_on,
    indexes_on,
    set_index_defs,
)


def certain_udb() -> UDatabase:
    return UDatabase.from_certain(
        {"r": Relation(["a", "b"], [(i, i * 2) for i in range(20)])}
    )


class TestLazyAutoIndexing:
    def test_add_relation_lists_and_builds_nothing(self):
        udb = certain_udb()
        relation = udb.partitions("r")[0].relation
        assert built_indexes_on(relation) == ()
        assert len(index_defs_on(relation)) == 3  # tid hash + 2 sorted

    def test_planner_access_builds_every_definition(self):
        udb = certain_udb()
        relation = udb.partitions("r")[0].relation
        built = indexes_on(relation)
        assert {i.kind for i in built} == {"hash", "sorted"}
        assert len(built) == 3
        assert set(built_indexes_on(relation)) == set(built)
        assert indexes_on(relation) == built  # the memoized handles

    def test_queries_still_use_indexes(self):
        udb = certain_udb()
        answer = execute_query(
            Poss(UProject(USelect(Rel("r"), col("a").eq(lit(3))), ["b"])), udb
        )
        assert answer.rows == [(6,)]
        relation = udb.partitions("r")[0].relation
        assert len(built_indexes_on(relation)) == 3  # built by the planner

    def test_unsortable_definition_stays_listed_unbuilt(self):
        relation = Relation(["a"], [(1,), ({"un": "hashable-sort"},)])
        set_index_defs(relation, [index_def(relation, ["a"], "sorted")])
        assert indexes_on(relation) == ()  # cannot build over this version
        assert [d.name for d in index_defs_on(relation)] == ["idx_a"]
        # a later version whose keys sort builds it
        sorted_again = relation.with_deleted([1]).compacted()
        assert [i.name for i in indexes_on(sorted_again)] == ["idx_a"]

    def test_policy_is_idempotent(self):
        udb = certain_udb()
        (part,) = udb.partitions("r")
        defs = udb.index_defs()
        udb.add_relation("r", ["a", "b"], [part])  # the same partition again
        assert udb.index_defs() == defs
        assert len(indexes_on(part.relation)) == 3


class TestPersistenceWithLazyIndexes:
    def test_save_does_not_force_builds(self, tmp_path):
        udb = certain_udb()
        save_udatabase(udb, tmp_path)
        relation = udb.partitions("r")[0].relation
        assert built_indexes_on(relation) == ()
        text = (tmp_path / "indexes.csv").read_text()
        assert "idx_u_r_a_b_tid" in text  # unbuilt definitions recorded

    def test_load_lists_and_round_trips_definitions(self, tmp_path):
        udb = certain_udb()
        save_udatabase(udb, tmp_path)
        loaded = load_udatabase(tmp_path)
        relation = loaded.partitions("r")[0].relation
        assert built_indexes_on(relation) == ()
        built = indexes_on(relation)
        assert sorted(i.name for i in built) == [
            "idx_u_r_a_b_a",
            "idx_u_r_a_b_b",
            "idx_u_r_a_b_tid",
        ]

    def test_user_index_survives_round_trip(self, tmp_path):
        udb = certain_udb()
        udb.create_index("idx_custom", "u_r_a_b", ["b"], kind="hash")
        save_udatabase(udb, tmp_path)
        loaded = load_udatabase(tmp_path)
        relation = loaded.partitions("r")[0].relation
        assert "idx_custom" in {i.name for i in indexes_on(relation)}


class TestPreIndexDirectories:
    def test_pre_index_directories_still_load(self, tmp_path):
        udb = certain_udb()
        save_udatabase(udb, tmp_path)
        (tmp_path / "indexes.csv").unlink()
        loaded = load_udatabase(tmp_path)
        assert loaded.relation_names() == ["r"]


class TestLazyIndexRobustness:
    def test_stale_definition_does_not_lose_the_rest(self, tmp_path):
        udb = certain_udb()
        save_udatabase(udb, tmp_path)
        with open(tmp_path / "indexes.csv", "a", encoding="utf-8") as handle:
            handle.write("u_r_a_b,idx_bad,missing_column,hash\r\n")
        loaded = load_udatabase(tmp_path)  # bad definition skipped, good built
        assert loaded.index_defs() == udb.index_defs()
        assert len(indexes_on(loaded.partitions("r")[0].relation)) == 3

    def test_build_indexes_forces_every_build(self):
        udb = certain_udb()
        relation = udb.partitions("r")[0].relation
        assert built_indexes_on(relation) == ()
        udb.build_indexes()
        assert len(built_indexes_on(relation)) == 3

    def test_hash_join_does_not_trigger_builds(self):
        from repro.relational.physical import HashJoin, SeqScan, execute

        udb = certain_udb()
        relation = udb.partitions("r")[0].relation
        join = HashJoin(
            SeqScan(relation, "u", alias="u"),
            SeqScan(relation, "v", alias="v"),
            [("u.tid_r", "v.tid_r")],
        )
        execute(join, mode="columns")
        # a join that hashes its own build side must not force the
        # auto-index builds (write-only pipelines rely on that laziness)
        assert built_indexes_on(relation) == ()
