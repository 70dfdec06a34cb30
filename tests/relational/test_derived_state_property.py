"""Property: derived state carried along a write equals a fresh build.

``Relation._derive`` hands every piece of already-built derived state -
column vectors, NULL and all-equal facts, row labels, hash and sorted
indexes with the ``mixed_table`` probe dict, statistics - from a relation
version to its
successor by applying the write's delta (append, delete, compact; UPDATE
is delete + append).  Two invariants, over random histories with the
structures built at random points:

* every structure on the successor answers exactly like one built from
  scratch over ``Relation(schema, successor.rows)`` - ``lookup``,
  ``range`` (result order included), ``ordered``, ``mixed_table``,
  ``column_store``, ``column_has_null``, ``column_all_equal``, ``len``;
* the parent version is never mutated: its structures pickle to the same
  bytes after the derivation as before.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.relational import Relation
from repro.relational.index import (
    attached_index_defs,
    build_index,
    built_indexes_on,
    ensure_index,
    indexes_on,
    row_labels,
)
from repro.relational.statistics import table_stats

SCHEMA = ["a", "b", "c"]
A_VALUES = [None, 0, 1, 2, 3]
B_VALUES = ["x", "y", "z"]
#: The all-equal facts a history asks for (``b`` all ``"x"`` is the one an
#: UPDATE flips both ways).
EQUAL_FACTS = [(0, 1), (0, None), (1, "x"), (2, 0)]

row = st.tuples(
    st.sampled_from(A_VALUES), st.sampled_from(B_VALUES), st.integers(0, 9)
)
rows = st.lists(row, min_size=0, max_size=6)
positions = st.lists(st.integers(0, 40), min_size=1, max_size=4)
index_defs = st.sampled_from(
    [
        ("hash", ("a",)),
        ("hash", ("a", "b")),
        ("sorted", ("a",)),
        ("sorted", ("b",)),
        ("sorted", ("b", "a")),
    ]
)
ops = st.one_of(
    st.tuples(st.just("append"), rows),
    st.tuples(st.just("delete"), positions),
    st.tuples(st.just("update"), positions, st.sampled_from(B_VALUES)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("index"), index_defs),
    st.tuples(st.just("touch"), st.sampled_from(["columns", "equal", "mixed", "stats"])),
)
histories = st.tuples(rows, st.lists(ops, min_size=1, max_size=10))


def _index_state(index):
    if index.kind == "hash":
        return (index._table, getattr(index, "_mixed", None), len(index))
    return (index._keys, index._ordinals, index._rows, index._first)


def _state(relation) -> bytes:
    """Everything planner/executor-visible on a relation version, as bytes."""
    return pickle.dumps(
        {
            "rows": relation.rows,
            "segments": [s.rows for s in relation.segments()],
            "deleted": sorted(relation.deleted_ordinals()),
            "columns": getattr(relation, "_columns", None),
            "has_null": getattr(relation, "_has_null", None),
            "all_equal": getattr(relation, "_all_equal", None),
            "labels": getattr(relation, "_labels", None),
            "indexes": {
                i.name: _index_state(i) for i in built_indexes_on(relation)
            },
            "defs": attached_index_defs(relation),
        }
    )


def _keys_of(index):
    if len(index.columns) == 1:
        domain = A_VALUES if index.columns == ("a",) else B_VALUES
        return list(domain) + [99]
    first, second = (
        (A_VALUES, B_VALUES) if index.columns[0] == "a" else (B_VALUES, A_VALUES)
    )
    return [(x, y) for x in first for y in second if x is not None and y is not None]


def _assert_like_fresh(relation):
    fresh_relation = Relation(SCHEMA, relation.rows)
    if getattr(relation, "_columns", None) is not None:
        assert relation.column_store() == fresh_relation.column_store()
        for position in range(len(SCHEMA)):
            assert relation.column_has_null(position) == fresh_relation.column_has_null(
                position
            )
    for (position, value), known in (getattr(relation, "_all_equal", None) or {}).items():
        assert known == fresh_relation.column_all_equal(position, value), (position, value)
    stats = getattr(relation, "_stats", None)
    if stats is not None:
        assert stats.row_count == len(relation.rows)
    labels = list(row_labels(relation))
    assert len(labels) == len(relation.rows) and labels == sorted(set(labels))
    for index in built_indexes_on(relation):
        assert index.relation is relation
        fresh = build_index(fresh_relation, index.columns, kind=index.kind)
        assert len(index) == len(fresh)
        for key in _keys_of(index):
            assert list(index.lookup(key)) == list(fresh.lookup(key)), (index, key)
        if index.kind == "hash":
            assert index.mixed_table() == fresh.mixed_table()
            assert index._table == fresh._table
            continue
        assert list(index.ordered()) == list(fresh.ordered())
        # range bounds apply to the first key column; None is an open bound
        bounds = [None] + (B_VALUES if index.columns[0] == "b" else A_VALUES[1:])
        for lower in bounds:
            for upper in bounds:
                for inclusive in (True, False):
                    assert list(index.range(lower, upper, inclusive, inclusive)) == list(
                        fresh.range(lower, upper, inclusive, inclusive)
                    ), (index, lower, upper, inclusive)


def _assert_segments_agree(relation):
    """The delete vector describes exactly the live rows."""
    rebuilt = Relation.from_segments(
        SCHEMA, relation.segments(), relation.deleted_ordinals()
    )
    assert rebuilt.rows == relation.rows
    assert Relation.from_segments(
        SCHEMA, relation.segments(), relation.deleted_ordinals()
    ).column_store() == Relation(SCHEMA, relation.rows).column_store()


def _live(picks, relation):
    return sorted({p % len(relation.rows) for p in picks}) if relation.rows else []


def _apply(relation, op):
    """One step of a history; returns the (possibly new) current version."""
    if op[0] == "append":
        return relation.with_appended(op[1])
    if op[0] == "delete":
        return relation.with_deleted(_live(op[1], relation))
    if op[0] == "update":
        chosen = _live(op[1], relation)
        rewritten = [(relation.rows[p][0], op[2], relation.rows[p][2]) for p in chosen]
        return relation.with_deleted(chosen).with_appended(rewritten)
    if op[0] == "compact":
        return relation.compacted()
    if op[0] == "index":
        kind, columns = op[1]
        ensure_index(relation, list(columns), kind=kind)
    elif op[1] == "columns":
        for position in range(len(SCHEMA)):
            relation.column_has_null(position)
    elif op[1] == "equal":
        for position, value in EQUAL_FACTS:
            relation.column_all_equal(position, value)
    elif op[1] == "mixed":
        for index in built_indexes_on(relation):
            if index.kind == "hash":
                index.mixed_table()
    else:
        for name in SCHEMA:
            table_stats(relation).column(name)
    return relation


@settings(max_examples=150, deadline=None)
@given(histories)
def test_carried_state_equals_a_fresh_build_and_parents_are_untouched(history):
    initial, steps = history
    relation = Relation(SCHEMA, initial)
    for op in steps:
        before = _state(relation)
        successor = _apply(relation, op)
        if successor is not relation:
            assert _state(relation) == before, f"{op[0]} mutated its parent"
            # what the parent had built, the successor has built too
            assert {i.name for i in built_indexes_on(successor)} == {
                i.name for i in built_indexes_on(relation)
            }
        _assert_like_fresh(successor)
        _assert_segments_agree(successor)
        relation = successor


def test_unmergeable_key_defers_that_index_only():
    relation = Relation(SCHEMA, [(1, "x", 0), (2, "y", 1)])
    ensure_index(relation, ["a"], kind="sorted", name="by_a")
    ensure_index(relation, ["b"], kind="sorted", name="by_b")
    ensure_index(relation, ["a"], kind="hash", name="hash_a")
    successor = relation.with_appended([("one", "z", 2)])
    assert {i.name for i in built_indexes_on(successor)} == {"by_b", "hash_a"}
    assert ("a",) in [d[0] for d in successor._pending_indexes]
    repaired = successor.with_deleted([2])
    # the deferred rebuild cannot sort the column either: skipped, as ever
    assert {i.name for i in indexes_on(successor)} == {"by_b", "hash_a"}
    _assert_like_fresh(successor)
    # with the offending row gone the carried definition builds again
    assert {i.name for i in indexes_on(repaired)} == {"by_a", "by_b", "hash_a"}
    _assert_like_fresh(repaired)


def test_labels_follow_deletes_while_the_sorted_index_is_deferred():
    relation = Relation(SCHEMA, [(1, "x", 0), (2, "y", 1), (3, "z", 2)])
    ensure_index(relation, ["a"], kind="sorted", name="by_a")
    shrunk = relation.with_deleted([0])  # labels part from positions here
    degraded = shrunk.with_appended([("one", "x", 3)])
    assert not built_indexes_on(degraded)
    repaired = degraded.with_deleted([0, 2])  # no sorted index is built now
    assert [i.name for i in indexes_on(repaired)] == ["by_a"]
    _assert_like_fresh(repaired)
    _assert_like_fresh(repaired.with_appended([(0, "y", 4)]).with_deleted([0]))


def test_statistics_are_inherited_until_the_analyze_threshold():
    relation = Relation(SCHEMA, [(i % 4, "x", i) for i in range(100)])
    computed = table_stats(relation).column("c")
    near = relation.with_appended([(0, "y", 1000 + i) for i in range(60)])
    assert near._stats.row_count == 160
    assert near._stats.column("c") is computed  # 60 <= 50 + 10 % of 100
    far = near.with_deleted([0])  # 61 rows changed: recompute
    assert far._stats.row_count == 159
    assert far._stats.column("c") is not computed
    assert far._stats.column("c").maximum == 1059


def test_all_equal_facts_follow_every_write():
    relation = Relation(SCHEMA, [(1, "x", 0), (2, "x", 1)])
    assert relation.column_all_equal(1, "x") and not relation.column_all_equal(0, 1)
    grown = relation.with_appended([(3, "x", 2)])
    assert grown._all_equal == {(1, "x"): True, (0, 1): False}  # the delta agreed
    flipped = grown.with_appended([(4, "y", 3)])
    assert flipped._all_equal == {(1, "x"): False, (0, 1): False}
    shrunk = flipped.with_deleted([3])
    assert shrunk._all_equal == {}  # a removal drops the false verdicts ...
    assert shrunk.column_all_equal(1, "x")  # ... and the next use recomputes
    assert shrunk.with_deleted([0])._all_equal == {(1, "x"): True}
    assert shrunk.compacted()._all_equal == {(1, "x"): True}
    assert relation._all_equal == {(1, "x"): True, (0, 1): False}  # parents untouched
    assert Relation(SCHEMA, []).column_all_equal(1, "x")  # vacuously
