"""Tests for the secondary-index subsystem.

Covers the index data structures (hash + sorted), attachment to relations,
the planner's access-path selection, and EXPLAIN output.
"""

from __future__ import annotations

import itertools

import pytest

from repro.relational import (
    HashIndex,
    Join,
    Relation,
    Scan,
    Select,
    SortedIndex,
    build_index,
    col,
    ensure_index,
    explain,
    indexes_on,
    lit,
    optimize,
    run,
)
from repro.relational.expressions import Param, executing
from repro.relational.index import attach_index, built_indexes_on, detach_index
from repro.relational.physical import IndexNestedLoopJoin, IndexScan, execute
from repro.relational.planner import plan_physical


def people(n: int = 100) -> Relation:
    rows = [
        (i, i % 10, None if i % 7 == 6 else i % 5, f"name{i % 3}")
        for i in range(n)
    ]
    return Relation(["id", "dept", "grade", "name"], rows)


def assert_range(idx, expected, lower, upper, inclusive=True, residual=None, params=()):
    """``idx.range`` and a range ``Index Scan`` over ``idx`` both give the
    rows ``expected``, in order: the scan run as the executor (columns
    gathered by row position, in batches of 1, 2 and 1024) and as the
    reference.  ``residual`` applies to the scan; ``params`` are the
    values of its ``$n`` bounds."""
    relation = idx.relation
    if residual is None and not params:
        assert list(idx.range(lower, upper, inclusive, inclusive)) == expected
    scan = IndexScan(
        idx, "r", relation.schema, lower=lower, upper=upper,
        lower_inclusive=inclusive, upper_inclusive=inclusive, residual=residual,
    )
    with executing(params):
        assert execute(scan, mode="rows").rows == expected
        for size in (1, 2, 1024):
            assert execute(scan, batch_size=size).rows == expected


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
        assert_range(idx, [r for r in rel.rows if 10 <= r[0] <= 20], 10, 20)
        assert_range(idx, [r for r in rel.rows if 10 < r[0] < 20], 10, 20, inclusive=False)
        # a residual on the scan keeps the range's order
        kept = [r for r in rel.rows if 10 <= r[0] <= 20 and r[1] != 4]
        assert_range(idx, kept, 10, 20, residual=col("dept").ne(lit(4)))

    def test_range_results_in_relation_order(self):
        # shuffled key column: results must follow relation order anyway
        rel = Relation(["k"], [(v,) for v in (5, 1, 9, 3, 7, 2, 8)])
        idx = SortedIndex(rel, ["k"])
        assert idx.range(2, 8) == [(5,), (3,), (7,), (2,), (8,)]
        assert_range(idx, [(5,), (3,), (7,), (2,), (8,)], 2, 8)
        assert_range(idx, [(5,), (3,), (7,)], 2, 8, inclusive=False)
        outside = (col("k") < lit(5)) | (col("k") > lit(6))
        assert_range(idx, [(3,), (7,), (2,), (8,)], 2, 8, residual=outside)

    def test_open_bounds_and_ordered(self):
        rel = Relation(["k"], [(3,), (1,), (2,)])
        idx = SortedIndex(rel, ["k"])
        assert idx.range(None, 2) == [(1,), (2,)]
        assert idx.range(2, None) == [(3,), (2,)]
        assert list(idx.ordered()) == [(1,), (2,), (3,)]
        assert_range(idx, [(1,), (2,)], None, 2)
        assert_range(idx, [(3,)], 2, None, inclusive=False)

    def test_empty_range(self):
        rel = people()
        idx = SortedIndex(rel, ["id"])
        assert list(idx.range(1000, 2000)) == []
        for lower, upper, inclusive in [(20, 10, True), (5, 5, False), (5.2, 5.8, True)]:
            assert list(idx.range(lower, upper, inclusive, inclusive)) == []
            assert_range(idx, [], lower, upper, inclusive)
        # a residual nothing passes empties a non-empty range
        assert_range(idx, [], 10, 20, residual=col("id") > lit(50))

    def test_null_param_bounds_match_nothing(self):
        rel = people()
        idx = SortedIndex(rel, ["id"])
        everything = [r for r in rel.rows if 10 <= r[0] <= 20]
        assert_range(idx, everything, Param(0), Param(1), params=(10, 20))
        for params in [(None, 20), (10, None), (None, None)]:
            assert_range(idx, [], Param(0), Param(1), params=params)
        assert_range(idx, [], None, Param(0), params=(None,))

    def test_one_row_range_is_a_list_of_that_row(self):
        rel = Relation(["k"], [(3,), (1,), (2,)])
        idx = SortedIndex(rel, ["k"])
        assert idx.range(2, 2) == [(2,)]
        assert idx.range(1, 3, lower_inclusive=False, upper_inclusive=False) == [(2,)]
        assert idx.range(None, 1) == [(1,)]
        assert_range(idx, [(2,)], 2, 2)
        assert_range(idx, [(2,)], 1, 3, inclusive=False)
        assert_range(idx, [(1,)], None, 1)
        assert_range(idx, [(2,)], Param(0), Param(0), params=(2,))

    def test_range_after_a_delete_and_an_insert_is_in_relation_order(self):
        """A delete leaves dead positions in the base segment and an insert
        appends a segment: every range is still the filtered relation, in
        its order."""
        rel = Relation(["k", "v"], [((7 * i) % 11, i) for i in range(40)])
        ensure_index(rel, ["k"], kind="sorted")
        rel = rel.with_deleted([0, 5, 6, 7, 30])
        rel = rel.with_appended([(3, 100), (10, 101), (3, 102), (0, 103)])
        (idx,) = built_indexes_on(rel)
        assert len(rel.segments()) == 2 and rel.deleted_count() == 5
        for lower, upper in [(3, 8), (None, 4), (9, None), (3, 3), (None, None)]:
            for inclusive in (True, False):
                expected = [
                    row for row in rel.rows
                    if (lower is None or row[0] > lower or inclusive and row[0] == lower)
                    and (upper is None or row[0] < upper or inclusive and row[0] == upper)
                ]
                assert list(idx.range(lower, upper, inclusive, inclusive)) == expected
                if lower is None and upper is None:
                    continue  # a full scan is in key order
                assert_range(idx, expected, lower, upper, inclusive)
                # the appended rows, by a residual
                late = [row for row in expected if row[1] > 50]
                assert_range(idx, late, lower, upper, inclusive, col("v") > lit(50))

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
        relation order, for every key the executor can hand either - over
        one clean segment, and over segments with dead rows."""
        rel = Relation(["k", "v"], [(1, "a"), (2, "b"), (1, "c"), (None, "d"), (1, "e")])
        written = rel.with_appended([(1, "f"), (3, "g")]).with_deleted([2, 6])
        for relation, kind in itertools.product((rel, written), ("hash", "sorted")):
            idx = build_index(relation, columns, kind=kind)
            held = idx.probe_lookup()(key)
            probed = [] if held is None else held if type(held) is list else [held]
            assert probed == list(idx.lookup(key))
            fresh = build_index(Relation(["k", "v"], relation.rows), columns, kind=kind)
            assert probed == list(fresh.lookup(key))


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
# planner access-path selection + explain
# ----------------------------------------------------------------------
def explained(plan, **knobs) -> str:
    """EXPLAIN of the executor's plan: optimized, then planned fused."""
    return explain(plan_physical(optimize(plan), fuse=True, **knobs))


class TestAccessPathSelection:
    def setup_method(self):
        self.p = people(200)
        self.q = Relation(["pid", "score"], [(i % 200, i) for i in range(500)])

    def scan(self, name):
        return Scan(getattr(self, name), name=name)

    def test_equality_uses_hash_index(self):
        ensure_index(self.p, ["dept"], name="idx_p_dept")
        plan = Select(self.scan("p"), col("dept").eq(lit(3)))
        text = explained(plan)
        assert "Index Scan using idx_p_dept on p" in text
        assert "Index Cond: (dept = 3)" in text
        assert run(plan) == run(plan, use_indexes=False)

    def test_range_uses_sorted_index(self):
        ensure_index(self.p, ["id"], kind="sorted", name="idx_p_id")
        plan = Select(self.scan("p"), (col("id") >= lit(10)) & (col("id") < lit(40)))
        assert "Index Scan using idx_p_id on p" in explained(plan)
        assert run(plan) == run(plan, use_indexes=False)

    def test_residual_filter_applied(self):
        ensure_index(self.p, ["dept"], name="idx_p_dept")
        plan = Select(self.scan("p"), col("dept").eq(lit(3)) & (col("id") > lit(50)))
        text = explained(plan)
        assert "Index Scan" in text and "Filter:" in text
        assert run(plan) == run(plan, use_indexes=False)

    def test_unselective_predicate_keeps_seq_scan(self):
        ensure_index(self.p, ["name"], name="idx_p_name")  # ndistinct = 3
        plan = Select(self.scan("p"), col("name").eq(lit("name0")))
        assert "Seq Scan on p" in explained(plan)

    def test_no_index_keeps_seq_scan(self):
        plan = Select(self.scan("p"), col("dept").eq(lit(3)))
        assert "Seq Scan on p" in explained(plan)

    def test_use_indexes_false_disables_index_paths(self):
        ensure_index(self.p, ["dept"], name="idx_p_dept")
        plan = Select(self.scan("p"), col("dept").eq(lit(3)))
        assert "Seq Scan on p" in explained(plan, use_indexes=False)

    def test_join_uses_index_nested_loop(self):
        ensure_index(self.p, ["id"], name="idx_p_id")
        plan = Join(
            Select(self.scan("q"), col("score") < lit(40)),
            self.scan("p"),
            col("pid").eq(col("id")),
        )
        text = explained(plan)
        assert "Index Nested Loop Join" in text
        assert "Index Scan using idx_p_id on p" in text
        assert run(plan) == run(plan, use_indexes=False)

    def test_join_falls_back_to_hash_join(self):
        plan = Join(self.scan("q"), self.scan("p"), col("pid").eq(col("id")))
        assert "Hash Join" in explained(plan)

    def test_null_point_lookup_matches_nothing(self):
        ensure_index(self.p, ["grade"], name="idx_p_grade")
        plan = Select(self.scan("p"), col("grade").eq(lit(None)))
        assert len(run(plan)) == 0
        assert run(plan) == run(plan, use_indexes=False)

    def test_type_mismatched_equality_agrees_with_seq_scan(self):
        ensure_index(self.p, ["dept"], kind="sorted", name="idx_p_dept")
        plan = Select(self.scan("p"), col("dept").eq(lit("not-an-int")))
        assert len(run(plan)) == 0
        assert run(plan) == run(plan, use_indexes=False)


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
        plan = Join(Scan(left, name="l"), Scan(right, name="r"), col("l.k").eq(col("r.k")))
        physical = plan_physical(plan, use_indexes=use_indexes)
        if use_indexes:
            assert isinstance(physical, IndexNestedLoopJoin)
        out = execute(physical, mode=mode, batch_size=batch_size)
        expected = [
            l + r for l in left.rows for r in right.rows
            if l[0] is not None and l[0] == r[0]
        ]
        assert sorted(map(repr, out.rows)) == sorted(map(repr, expected))
