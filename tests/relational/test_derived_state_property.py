"""Property: every access path on every version equals a fresh build.

A relation version is its immutable segments plus a delete vector; each
segment builds what is derived from its own rows (column vectors, value
counts, index structures, probe tables) once, and every version holding
it shares them.  Over random histories of appends, deletes, updates and
compactions, with the structures built at random points:

* every access path on every version answers exactly like one built from
  scratch over ``Relation(schema, version.rows)`` - ``lookup``,
  ``range`` (result order included), ``ordered``, ``probe_lookup``, a
  sequential scan's batches, ``column_has_null``, ``column_all_equal``,
  ``len`` - and a range ``Index Scan``'s columns (gathered per segment by
  row position) equal its ``rows()``;
* the parent version is never changed: it answers every one of those
  the same after the derivation as before;
* everything a segment has memoized equals a fresh build over its rows -
  which, on a compaction's new base, checks the edits that carried the
  old base's structures over (``Refill``).

Explicit examples pin the three shapes a compaction takes: more rows
placed than slots vacated, more vacated than placed (the last live rows
move into the holes), and deletes only.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.relational.relation as relation_module
from repro.relational import Relation
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.relation import Segment
from repro.relational.index import (
    build_index,
    built_indexes_on,
    ensure_index,
    index_defs_on,
    indexes_on,
)
from repro.relational.physical import IndexScan, SeqScan, execute
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
    st.tuples(st.just("touch"), st.sampled_from(["columns", "equal", "probe", "stats"])),
)
histories = st.tuples(rows, st.lists(ops, min_size=1, max_size=10))


def _keys_of(index):
    if len(index.columns) == 1:
        domain = A_VALUES if index.columns == ("a",) else B_VALUES
        return list(domain) + [99]
    first, second = (
        (A_VALUES, B_VALUES) if index.columns[0] == "a" else (B_VALUES, A_VALUES)
    )
    return [(x, y) for x in first for y in second if x is not None and y is not None]


def _bounds(index):
    # range bounds apply to the first key column; None is an open bound
    return [None] + (B_VALUES if index.columns[0] == "b" else A_VALUES[1:])


def _probed(index, key):
    held = index.probe_lookup()(key)
    return [] if held is None else held if type(held) is list else [held]


def _index_answers(index):
    """Every answer an index gives, as plain values."""
    out = {"len": len(index)}
    for key in _keys_of(index):
        out["lookup", key] = list(index.lookup(key))
        out["probe", key] = _probed(index, key)
    if index.kind == "sorted":
        out["ordered"] = list(index.ordered())
        for lower in _bounds(index):
            for upper in _bounds(index):
                for inclusive in (True, False):
                    out["range", lower, upper, inclusive] = list(
                        index.range(lower, upper, inclusive, inclusive)
                    )
    return out


def _answers(relation):
    """Everything planner/executor-visible a version answers."""
    return {
        "rows": list(relation.rows),
        "len": len(relation),
        "scan": execute(SeqScan(relation, "r"), batch_size=2).rows,
        "has_null": [relation.column_has_null(p) for p in range(len(SCHEMA))],
        "all_equal": [relation.column_all_equal(p, v) for p, v in EQUAL_FACTS],
        "indexes": {i.name: _index_answers(i) for i in built_indexes_on(relation)},
        "defs": index_defs_on(relation),
    }


def _assert_like_fresh(relation):
    fresh_relation = Relation(SCHEMA, relation.rows)
    assert len(relation) == len(fresh_relation)
    assert execute(SeqScan(relation, "r"), batch_size=2).rows == fresh_relation.rows
    for position in range(len(SCHEMA)):
        assert relation.column_has_null(position) == fresh_relation.column_has_null(position)
    for position, value in EQUAL_FACTS:
        assert relation.column_all_equal(position, value) == fresh_relation.column_all_equal(
            position, value
        ), (position, value)
    stats = getattr(relation, "_stats", None)
    if stats is not None:
        assert stats.row_count == len(relation.rows)
    for index in built_indexes_on(relation):
        assert index.relation is relation
        fresh = build_index(fresh_relation, index.columns, kind=index.kind)
        assert _index_answers(index) == _index_answers(fresh), index
        if index.kind == "hash":
            continue
        for lower in _bounds(index):
            for upper in _bounds(index):
                for inclusive in (True, False):
                    if lower is None and upper is None:
                        continue  # a full scan, in key order
                    # the executor gathers the range by row position: the
                    # reference's rows in the reference's (relation) order
                    scan = IndexScan(
                        index, "r", relation.schema, lower=lower, upper=upper,
                        lower_inclusive=inclusive, upper_inclusive=inclusive,
                    )
                    assert execute(scan, batch_size=2).rows == list(scan.rows())


def _assert_memos_like_fresh(relation):
    """Every value memoized on a segment equals a fresh build over its rows."""
    for segment in relation.segments():
        for (build, *args), value in list(segment._memo.items()):
            assert value == build(Segment(0, segment.rows), *args), (build.__name__, args)


def _assert_segments_agree(relation):
    """The delete vector describes exactly the live rows."""
    rebuilt = Relation.from_segments(
        SCHEMA, relation.segments(), relation.deleted_ordinals()
    )
    assert rebuilt.rows == relation.rows
    assert rebuilt.deleted_count() == relation.deleted_count()


def _ordinals(picks, relation):
    """Ordinals of live rows, one per pick (wrapped around the live rows)."""
    live = sorted(
        set(range(sum(len(s.rows) for s in relation.segments())))
        - relation.deleted_ordinals()
    )
    return sorted({live[p % len(live)] for p in picks}) if live else []


def _apply(relation, op):
    """One step of a history; returns the (possibly new) current version."""
    if op[0] == "append":
        return relation.with_appended(op[1])
    if op[0] == "delete":
        return relation.with_deleted(_ordinals(op[1], relation))
    if op[0] == "update":
        chosen = _ordinals(op[1], relation)
        flat = [row for segment in relation.segments() for row in segment.rows]
        rewritten = [(flat[o][0], op[2], flat[o][2]) for o in chosen]
        return relation.with_deleted(chosen).with_appended(rewritten)
    if op[0] == "compact":
        return relation.compacted()
    if op[0] == "index":
        kind, columns = op[1]
        ensure_index(relation, list(columns), kind=kind)
    elif op[1] == "columns":
        execute(SeqScan(relation, "r"))
    elif op[1] == "equal":
        for position, value in EQUAL_FACTS:
            relation.column_all_equal(position, value)
    elif op[1] == "probe":
        for index in built_indexes_on(relation):
            _probed(index, _keys_of(index)[1])
    else:
        for name in SCHEMA:
            table_stats(relation).column(name)
    return relation


@pytest.mark.parametrize("share", [0.0, float("inf")], ids=["vacuum-builds", "vacuum-edits"])
@settings(max_examples=150, deadline=None)
@given(history=histories)
def test_every_version_answers_like_a_fresh_build_and_parents_are_untouched(share, history):
    with mock.patch.object(relation_module, "EDIT_SHARE", share):
        _check_history(history)


def _check_history(history):
    initial, steps = history
    relation = Relation(SCHEMA, initial)
    for op in steps:
        before = _answers(relation)
        successor = _apply(relation, op)
        if successor is not relation:
            assert _answers(relation) == before, f"{op[0]} changed its parent"
            # what the parent had built, the successor has built too
            assert {i.name for i in built_indexes_on(successor)} == {
                i.name for i in built_indexes_on(relation)
            }
        _assert_like_fresh(successor)
        _assert_memos_like_fresh(successor)
        _assert_segments_agree(successor)
        relation = successor


@pytest.mark.parametrize("planned_first", [True, False], ids=["planned-first", "derived-first"])
def test_unmergeable_key_leaves_that_index_unbuilt_and_listed(planned_first):
    """Whether a planner reads the version before or after its successors
    are derived, the definition stays listed and builds again once the
    column sorts."""
    relation = Relation(SCHEMA, [(1, "x", 0), (2, "y", 1)])
    ensure_index(relation, ["a"], kind="sorted", name="by_a")
    ensure_index(relation, ["b"], kind="sorted", name="by_b")
    ensure_index(relation, ["a"], kind="hash", name="hash_a")
    successor = relation.with_appended([("one", "z", 2)])
    assert {i.name for i in built_indexes_on(successor)} == {"by_b", "hash_a"}
    if planned_first:  # a planner cannot sort the column either
        assert {i.name for i in indexes_on(successor)} == {"by_b", "hash_a"}
    deleted = successor.with_deleted([2])
    repaired = deleted.compacted()
    for version in (successor, deleted, repaired):
        assert index_defs_on(version) is index_defs_on(relation)  # still listed
    # a dead key still sits in its segment: nothing to sort across yet
    assert {i.name for i in indexes_on(deleted)} == {"by_b", "hash_a"}
    assert {i.name for i in indexes_on(successor)} == {"by_b", "hash_a"}
    _assert_like_fresh(successor)
    # with the offending row gone and compacted away, the definition
    # builds again
    assert {i.name for i in indexes_on(repaired)} == {"by_a", "by_b", "hash_a"}
    _assert_like_fresh(repaired)


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
    (base,) = relation.segments()
    grown = relation.with_appended([(3, "x", 2)])
    assert grown.column_all_equal(1, "x")  # the new segment agrees
    flipped = grown.with_appended([(4, "y", 3)])
    assert not flipped.column_all_equal(1, "x")
    shrunk = flipped.with_deleted([3])  # the dissenting row dies
    assert shrunk.column_all_equal(1, "x")
    assert shrunk.with_deleted([0]).column_all_equal(1, "x")
    assert shrunk.compacted().column_all_equal(1, "x")
    assert not relation.with_deleted([1]).column_all_equal(0, 2)
    assert relation.with_deleted([1]).column_all_equal(0, 1)
    # every version read the base segment's own count of "x", made once
    assert shrunk.segments()[0] is base
    assert [v for k, v in base._memo.items() if k[1:] == (1, "x")] == [2]
    assert not relation.column_all_equal(0, 1)  # parents untouched
    assert Relation(SCHEMA, []).column_all_equal(1, "x")  # vacuously


def _fully_built(rows):
    """A relation with every index kind, column vectors, counts and probe
    tables built on its segment."""
    relation = Relation(SCHEMA, rows)
    for kind, columns in [("hash", "a"), ("hash", "ab"), ("sorted", "a"), ("sorted", "ba")]:
        ensure_index(relation, list(columns), kind=kind)
    _apply(relation, ("touch", "columns"))
    _apply(relation, ("touch", "equal"))
    _apply(relation, ("touch", "probe"))
    relation.null_columns()
    return relation


#: Large enough that each shape below touches under ``EDIT_SHARE`` of it:
#: the compaction edits.
@pytest.fixture
def ways(monkeypatch):
    """The names (``_build`` / ``_edit``) of the index structure builders
    and editors called, in order."""
    calls = []
    for cls in (HashIndex, SortedIndex):
        for name in ("_build", "_edit"):
            real = getattr(cls, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cls, name, staticmethod(counted))
    return calls


BASE_ROWS = [((i % 4) or None, B_VALUES[i % 3], i) for i in range(60)]


@pytest.mark.parametrize(
    "appended, deleted",
    [
        # more rows placed than slots vacated: holes refilled, the rest at the end
        ([(1, "z", 20), (2, "x", 21), (None, "y", 22), (3, "z", 23)], [2, 5]),
        # more vacated than placed: the last live rows move into the holes
        ([(1, "x", 30)], [0, 3, 6, 10, 11]),
        # deletes only
        ([], [1, 4, 7, 8]),
    ],
    ids=["placed-more", "vacated-more", "deletes-only"],
)
def test_vacuum_shapes_edit_like_fresh_builds(ways, appended, deleted):
    base = _fully_built(BASE_ROWS)
    pinned = base.with_appended(appended).with_deleted(deleted)
    for index in built_indexes_on(pinned):
        _probed(index, _keys_of(index)[0])  # the appended segment's tables too
    before = _answers(pinned)
    ways.clear()
    vacuumed = pinned.compacted()
    assert ways == ["_edit"] * 4  # every index's structure, by edits
    (segment,) = vacuumed.segments()
    assert segment._memo.keys() == base.segments()[0]._memo.keys()
    _assert_like_fresh(vacuumed)
    _assert_memos_like_fresh(vacuumed)
    assert vacuumed == pinned  # the same bag of rows
    # the rows that stay below the new end keep their slots
    end = len(vacuumed.rows)
    kept = [p for p in range(min(end, len(BASE_ROWS))) if p not in deleted]
    for p in kept:
        assert vacuumed.rows[p] is BASE_ROWS[p]
    # the version pinned before the VACUUM answers exactly as before
    assert _answers(pinned) == before
    _assert_memos_like_fresh(pinned)
    _assert_memos_like_fresh(base)


def test_vacuum_shapes_place_rows_in_slot_order():
    rows = [(i, "x", i) for i in range(6)]
    relation = Relation(SCHEMA, rows)
    refilled = relation.with_appended([(10, "y", 10), (11, "y", 11), (12, "y", 12)])
    refilled = refilled.with_deleted([1, 4]).compacted()
    assert [r[0] for r in refilled.rows] == [0, 10, 2, 3, 11, 5, 12]
    moved = relation.with_appended([(10, "y", 10)]).with_deleted([0, 2, 3]).compacted()
    assert [r[0] for r in moved.rows] == [10, 1, 4, 5]
    shrunk = relation.with_deleted([4, 5]).compacted()
    assert [r[0] for r in shrunk.rows] == [0, 1, 2, 3]


def test_a_bulk_placement_builds_afresh(ways):
    """Past ``EDIT_SHARE`` of the new base's rows, a compaction builds its
    base's structures instead of editing them; both ways equal fresh."""
    base = _fully_built(BASE_ROWS)
    few = base.with_appended([(1, "x", 40)]).with_deleted([0])
    many = base.with_appended([(i % 4, "y", 100 + i) for i in range(60)])
    # one row into one hole: at most 3 slots of 60; 60 rows at the end, 60 of 120
    assert 3 / 60 <= relation_module.EDIT_SHARE < 60 / 120
    for version, way in ((few, "_edit"), (many, "_build")):
        ways.clear()
        vacuumed = version.compacted()
        assert set(ways) == {way}
        _assert_like_fresh(vacuumed)
        _assert_memos_like_fresh(vacuumed)
