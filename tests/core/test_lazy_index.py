"""Tests for lazy auto-indexing and its persistence."""

from __future__ import annotations

from repro.core import UDatabase, execute_query
from repro.core.persist import load_udatabase, save_udatabase
from repro.core.query import Poss, Rel, UProject, USelect
from repro.relational import Relation
from repro.relational.expressions import col, lit
from repro.relational.index import attached_index_defs, defer_index, indexes_on


def certain_udb() -> UDatabase:
    return UDatabase.from_certain(
        {"r": Relation(["a", "b"], [(i, i * 2) for i in range(20)])}
    )


class TestLazyAutoIndexing:
    def test_add_relation_defers_builds(self):
        udb = certain_udb()
        relation = udb.partitions("r")[0].relation
        assert not getattr(relation, "_indexes", None)
        assert len(attached_index_defs(relation)) == 3  # tid hash + 2 sorted

    def test_planner_access_materializes(self):
        udb = certain_udb()
        relation = udb.partitions("r")[0].relation
        built = indexes_on(relation)
        assert {i.kind for i in built} == {"hash", "sorted"}
        assert len(built) == 3
        assert not getattr(relation, "_pending_indexes")

    def test_queries_still_use_indexes(self):
        udb = certain_udb()
        answer = execute_query(
            Poss(UProject(USelect(Rel("r"), col("a").eq(lit(3))), ["b"])), udb
        )
        assert answer.rows == [(6,)]
        relation = udb.partitions("r")[0].relation
        assert len(getattr(relation, "_indexes")) == 3  # built by the planner

    def test_unsortable_deferred_definition_is_skipped(self):
        relation = Relation(["a"], [(1,), ({"un": "hashable-sort"},)])
        defer_index(relation, ["a"], kind="sorted")
        assert indexes_on(relation) == ()  # skipped silently, like eager

    def test_defer_is_idempotent(self):
        relation = Relation(["a"], [(1,)])
        defer_index(relation, ["a"], kind="hash", name="idx_x")
        defer_index(relation, ["a"], kind="hash", name="idx_x")
        assert len(getattr(relation, "_pending_indexes")) == 1
        assert len(indexes_on(relation)) == 1
        defer_index(relation, ["a"], kind="hash", name="idx_x")  # already built
        assert indexes_on(relation)[0].name == "idx_x"


class TestPersistenceWithLazyIndexes:
    def test_save_does_not_force_builds(self, tmp_path):
        udb = certain_udb()
        save_udatabase(udb, tmp_path)
        relation = udb.partitions("r")[0].relation
        assert not getattr(relation, "_indexes", None)
        text = (tmp_path / "indexes.csv").read_text()
        assert "idx_u_r_a_b_tid" in text  # pending definitions recorded

    def test_load_defers_and_round_trips_definitions(self, tmp_path):
        udb = certain_udb()
        save_udatabase(udb, tmp_path)
        loaded = load_udatabase(tmp_path)
        relation = loaded.partitions("r")[0].relation
        assert not getattr(relation, "_indexes", None)
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
    def test_stale_definition_does_not_lose_the_rest(self):
        relation = Relation(["a"], [(1,), (2,)])
        defer_index(relation, ["missing_column"], kind="hash", name="idx_bad")
        defer_index(relation, ["a"], kind="hash", name="idx_good")
        built = indexes_on(relation)  # bad definition skipped, good built
        assert [i.name for i in built] == ["idx_good"]

    def test_build_indexes_forces_all_deferred_builds(self):
        udb = certain_udb()
        relation = udb.partitions("r")[0].relation
        assert not getattr(relation, "_indexes", None)
        udb.build_indexes()
        assert len(getattr(relation, "_indexes")) == 3

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
        # deferred auto-index builds (write-only pipelines rely on that
        # laziness)
        assert not getattr(relation, "_indexes", None)
