"""Tests for the secondary-index subsystem.

Covers the index data structures (hash + sorted), attachment to relations,
the named-index registry with rebuild-on-replacement maintenance, the
planner's access-path selection, and EXPLAIN output.
"""

from __future__ import annotations

import pytest

from repro.relational import (
    Database,
    HashIndex,
    Join,
    Relation,
    Select,
    SortedIndex,
    build_index,
    col,
    ensure_index,
    indexes_on,
    lit,
)
from repro.relational.index import attach_index, detach_index
from repro.relational.physical import IndexNestedLoopJoin, IndexScan, execute
from repro.relational.planner import plan_physical


def people(n: int = 100) -> Relation:
    rows = [
        (i, i % 10, None if i % 7 == 6 else i % 5, f"name{i % 3}")
        for i in range(n)
    ]
    return Relation(["id", "dept", "grade", "name"], rows)


# ----------------------------------------------------------------------
# data structures
# ----------------------------------------------------------------------
class TestHashIndex:
    def test_point_lookup(self):
        rel = people()
        idx = HashIndex(rel, ["dept"])
        expected = [r for r in rel.rows if r[1] == 3]
        assert list(idx.lookup(3)) == expected

    def test_duplicates_preserved_in_row_order(self):
        rel = Relation(["k", "v"], [(1, "a"), (1, "a"), (2, "b"), (1, "c")])
        idx = HashIndex(rel, ["k"])
        assert list(idx.lookup(1)) == [(1, "a"), (1, "a"), (1, "c")]

    def test_null_keys_not_indexed(self):
        rel = people()
        idx = HashIndex(rel, ["grade"])
        assert list(idx.lookup(None)) == []
        assert len(idx) == sum(1 for r in rel.rows if r[2] is not None)

    def test_missing_key_empty(self):
        idx = HashIndex(people(), ["dept"])
        assert list(idx.lookup(999)) == []

    def test_multi_column_key(self):
        rel = people()
        idx = HashIndex(rel, ["dept", "name"])
        expected = [r for r in rel.rows if (r[1], r[3]) == (2, "name0")]
        assert list(idx.lookup((2, "name0"))) == expected

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            HashIndex(people(), ["dept", "dept"])


class TestSortedIndex:
    def test_point_lookup(self):
        rel = people()
        idx = SortedIndex(rel, ["dept"])
        assert sorted(idx.lookup(4)) == sorted(r for r in rel.rows if r[1] == 4)

    def test_range_bounds(self):
        rel = people()
        idx = SortedIndex(rel, ["id"])
        got = idx.range(10, 20)
        assert got == [r for r in rel.rows if 10 <= r[0] <= 20]
        got = idx.range(10, 20, lower_inclusive=False, upper_inclusive=False)
        assert got == [r for r in rel.rows if 10 < r[0] < 20]

    def test_range_results_in_relation_order(self):
        # shuffled key column: results must follow relation order anyway
        rel = Relation(["k"], [(v,) for v in (5, 1, 9, 3, 7, 2, 8)])
        idx = SortedIndex(rel, ["k"])
        assert idx.range(2, 8) == [(5,), (3,), (7,), (2,), (8,)]

    def test_open_bounds_and_ordered(self):
        rel = Relation(["k"], [(3,), (1,), (2,)])
        idx = SortedIndex(rel, ["k"])
        assert idx.range(None, 2) == [(1,), (2,)]
        assert idx.range(2, None) == [(3,), (2,)]
        assert list(idx.ordered()) == [(1,), (2,), (3,)]

    def test_empty_range(self):
        idx = SortedIndex(people(), ["id"])
        assert list(idx.range(1000, 2000)) == []

    def test_unsortable_column_raises(self):
        rel = Relation(["k"], [(1,), ("x",)])
        with pytest.raises(TypeError):
            SortedIndex(rel, ["k"])

    def test_nulls_excluded(self):
        rel = people()
        idx = SortedIndex(rel, ["grade"])
        assert len(idx) == sum(1 for r in rel.rows if r[2] is not None)

    def test_type_mismatched_lookup_matches_nothing(self):
        # equality never raises in the executor, so neither may the index
        idx = SortedIndex(people(), ["name"])
        assert list(idx.lookup(5)) == []

    @pytest.mark.parametrize(
        "columns, key",
        [
            (["k"], None),
            (["k"], "1"),  # a string on an int column
            (["k"], 1.0),  # equal to 1, of another type
            (["k"], 1),
            (["k"], 3),
            (["k", "v"], (1.0, "c")),
            (["k", "v"], (1, None)),
        ],
    )
    def test_probe_table_answers_like_lookup(self, columns, key):
        """A join probes the table, a point scan bisects: same rows, in
        relation order, for every key the executor can hand either."""
        rel = Relation(["k", "v"], [(1, "a"), (2, "b"), (1, "c"), (None, "d"), (1, "e")])
        idx = SortedIndex(rel, columns)
        held = idx.mixed_table().get(key)
        probed = [] if held is None else held if type(held) is list else [held]
        assert probed == list(idx.lookup(key))


class TestAttachment:
    def test_build_and_attach(self):
        rel = people()
        assert indexes_on(rel) == ()
        idx = build_index(rel, ["dept"], kind="hash")
        attach_index(rel, idx)
        assert idx in indexes_on(rel)
        detach_index(rel, idx)
        assert indexes_on(rel) == ()

    def test_ensure_reuses_equivalent(self):
        rel = people()
        a = ensure_index(rel, ["dept"], kind="hash")
        b = ensure_index(rel, ["dept"], kind="hash")
        assert a is b
        c = ensure_index(rel, ["dept"], kind="sorted")
        assert c is not a
        assert len(indexes_on(rel)) == 2

    def test_ensure_respects_requested_name(self):
        # EXPLAIN attributes scans by index name: an explicitly-named
        # creation must not alias an equivalent differently-named index
        rel = people()
        a = ensure_index(rel, ["dept"], kind="hash", name="one")
        b = ensure_index(rel, ["dept"], kind="hash", name="two")
        assert a is not b and (a.name, b.name) == ("one", "two")
        assert ensure_index(rel, ["dept"], kind="hash", name="one") is a
        assert ensure_index(rel, ["dept"], kind="hash") in (a, b)

    def test_hash_listed_before_sorted(self):
        rel = people()
        s = ensure_index(rel, ["dept"], kind="sorted")
        h = ensure_index(rel, ["dept"], kind="hash")
        assert list(indexes_on(rel)) == [h, s]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_index(people(), ["dept"], kind="btree")


# ----------------------------------------------------------------------
# registry + Database integration
# ----------------------------------------------------------------------
class TestRegistry:
    def db(self) -> Database:
        db = Database()
        db.create("p", people())
        return db

    def test_create_and_drop(self):
        db = self.db()
        idx = db.create_index("idx_p_dept", "p", ["dept"])
        assert "idx_p_dept" in db.indexes
        assert idx in indexes_on(db.get("p"))
        db.drop_index("idx_p_dept")
        assert "idx_p_dept" not in db.indexes
        assert indexes_on(db.get("p")) == ()

    def test_duplicate_name_requires_replace(self):
        db = self.db()
        db.create_index("i", "p", ["dept"])
        with pytest.raises(KeyError):
            db.create_index("i", "p", ["id"])
        db.create_index("i", "p", ["id"], replace=True)
        assert db.indexes.get("i").columns == ("id",)

    def test_idempotent_create(self):
        db = self.db()
        a = db.create_index("i", "p", ["dept"])
        b = db.create_index("i", "p", ["dept"])
        assert a is b

    def test_rebuilt_on_relation_replacement(self):
        db = self.db()
        db.create_index("i", "p", ["dept"])
        old = db.indexes.get("i")
        replacement = people(17)
        db.create("p", replacement, replace=True)
        new = db.indexes.get("i")
        assert new is not old
        assert new.relation is replacement
        assert list(new.lookup(3)) == [r for r in replacement.rows if r[1] == 3]
        assert indexes_on(replacement) == (new,)

    def test_failed_replacement_leaves_catalog_untouched(self):
        # the rebuild is all-or-nothing and precedes the catalog mutation
        db = self.db()
        db.create_index("i", "p", ["dept"])
        old = db.get("p")
        old_index = db.indexes.get("i")
        with pytest.raises(Exception):
            db.create("p", Relation(["other"], [(1,)]), replace=True)
        assert db.get("p") is old
        assert db.indexes.get("i") is old_index
        assert old_index in indexes_on(old)

    def test_dropped_with_table(self):
        db = self.db()
        db.create_index("i", "p", ["dept"])
        db.drop("p")
        assert "i" not in db.indexes

    def test_definitions_and_names(self):
        db = self.db()
        db.create_index("a", "p", ["dept"])
        db.create_index("b", "p", ["id"], kind="sorted")
        assert db.index_names() == ["a", "b"]
        assert db.index_names("p") == ["a", "b"]
        assert db.indexes.definitions() == [
            ("a", "p", ("dept",), "hash"),
            ("b", "p", ("id",), "sorted"),
        ]


# ----------------------------------------------------------------------
# planner access-path selection + explain
# ----------------------------------------------------------------------
class TestAccessPathSelection:
    def db(self) -> Database:
        db = Database()
        db.create("p", people(200))
        db.create("q", Relation(["pid", "score"], [(i % 200, i) for i in range(500)]))
        return db

    def test_equality_uses_hash_index(self):
        db = self.db()
        db.create_index("idx_p_dept", "p", ["dept"])
        plan = Select(db.scan("p"), col("dept").eq(lit(3)))
        text = db.explain(plan)
        assert "Index Scan using idx_p_dept on p" in text
        assert "Index Cond: (dept = 3)" in text
        assert db.run(plan) == db.run(plan, use_indexes=False)

    def test_range_uses_sorted_index(self):
        db = self.db()
        db.create_index("idx_p_id", "p", ["id"], kind="sorted")
        plan = Select(db.scan("p"), (col("id") >= lit(10)) & (col("id") < lit(40)))
        text = db.explain(plan)
        assert "Index Scan using idx_p_id on p" in text
        assert db.run(plan) == db.run(plan, use_indexes=False)

    def test_residual_filter_applied(self):
        db = self.db()
        db.create_index("idx_p_dept", "p", ["dept"])
        plan = Select(db.scan("p"), col("dept").eq(lit(3)) & (col("id") > lit(50)))
        text = db.explain(plan)
        assert "Index Scan" in text and "Filter:" in text
        assert db.run(plan) == db.run(plan, use_indexes=False)

    def test_unselective_predicate_keeps_seq_scan(self):
        db = self.db()
        db.create_index("idx_p_name", "p", ["name"])  # ndistinct = 3
        plan = Select(db.scan("p"), col("name").eq(lit("name0")))
        assert "Seq Scan on p" in db.explain(plan)

    def test_no_index_keeps_seq_scan(self):
        db = self.db()
        plan = Select(db.scan("p"), col("dept").eq(lit(3)))
        assert "Seq Scan on p" in db.explain(plan)

    def test_merge_profile_disables_index_paths(self):
        db = self.db()
        db.create_index("idx_p_dept", "p", ["dept"])
        plan = Select(db.scan("p"), col("dept").eq(lit(3)))
        assert "Seq Scan on p" in db.explain(plan, prefer_merge_join=True)

    def test_join_uses_index_nested_loop(self):
        db = self.db()
        db.create_index("idx_p_id", "p", ["id"])
        plan = Join(
            Select(db.scan("q"), col("score") < lit(40)),
            db.scan("p"),
            col("pid").eq(col("id")),
        )
        text = db.explain(plan)
        assert "Index Nested Loop Join" in text
        assert "Index Scan using idx_p_id on p" in text
        assert db.run(plan) == db.run(plan, use_indexes=False)

    def test_join_falls_back_to_hash_join(self):
        db = self.db()
        plan = Join(db.scan("q"), db.scan("p"), col("pid").eq(col("id")))
        assert "Hash Join" in db.explain(plan)

    def test_null_point_lookup_matches_nothing(self):
        db = self.db()
        db.create_index("idx_p_grade", "p", ["grade"])
        plan = Select(db.scan("p"), col("grade").eq(lit(None)))
        assert len(db.run(plan)) == 0
        assert db.run(plan) == db.run(plan, use_indexes=False)

    def test_type_mismatched_equality_agrees_with_seq_scan(self):
        db = self.db()
        db.create_index("idx_p_dept", "p", ["dept"], kind="sorted")
        plan = Select(db.scan("p"), col("dept").eq(lit("not-an-int")))
        assert len(db.run(plan)) == 0
        assert db.run(plan) == db.run(plan, use_indexes=False)


class TestIndexScanExecution:
    @pytest.mark.parametrize("batch_size", [0, 1, 1023, 1024, 1025])
    @pytest.mark.parametrize("mode", ["rows", "columns"])
    def test_modes_and_batch_sizes(self, batch_size, mode):
        rel = people(1030)
        idx = ensure_index(rel, ["dept"], kind="hash")
        scan = IndexScan(idx, "p", rel.schema, point=3)
        out = execute(scan, mode=mode, batch_size=batch_size)
        assert sorted(out.rows) == sorted(r for r in rel.rows if r[1] == 3)

    def test_probe_mode_produces_nothing(self):
        rel = people()
        idx = ensure_index(rel, ["dept"], kind="hash")
        scan = IndexScan(idx, "p", rel.schema, probe=True)
        assert len(execute(scan)) == 0

    def test_point_and_range_mutually_exclusive(self):
        rel = people()
        idx = ensure_index(rel, ["id"], kind="sorted")
        with pytest.raises(ValueError):
            IndexScan(idx, "p", rel.schema, point=1, lower=0)

    def test_hash_full_scan_rejected(self):
        rel = people()
        idx = ensure_index(rel, ["dept"], kind="hash")
        with pytest.raises(ValueError):
            IndexScan(idx, "p", rel.schema)

    def test_sorted_full_scan_is_ordered(self):
        rel = Relation(["k"], [(3,), (1,), (2,)])
        idx = ensure_index(rel, ["k"], kind="sorted")
        scan = IndexScan(idx, "r", rel.schema)
        assert execute(scan).rows == [(1,), (2,), (3,)]


class TestIndexNestedLoopJoinExecution:
    @pytest.mark.parametrize("batch_size", [0, 1, 1023, 1024, 1025])
    @pytest.mark.parametrize("mode", ["rows", "columns"])
    @pytest.mark.parametrize("use_indexes", [False, True])
    def test_join_modes_and_batch_sizes(self, batch_size, mode, use_indexes):
        left = Relation(["l.k", "l.v"], [(i % 37 if i % 5 else None, i) for i in range(300)])
        right = Relation(["r.k", "r.w"], [(i % 37, i * 2) for i in range(400)])
        ensure_index(right, ["r.k"], kind="hash")
        db = Database()
        db.create("l", left)
        db.create("r", right)
        plan = Join(db.scan("l"), db.scan("r"), col("l.k").eq(col("r.k")))
        physical = plan_physical(plan, use_indexes=use_indexes)
        if use_indexes:
            assert isinstance(physical, IndexNestedLoopJoin)
        out = execute(physical, mode=mode, batch_size=batch_size)
        expected = [
            l + r for l in left.rows for r in right.rows
            if l[0] is not None and l[0] == r[0]
        ]
        assert sorted(map(repr, out.rows)) == sorted(map(repr, expected))
