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
  row position) equal ``evaluate`` of the selection it makes;
* the parent version is never changed: it answers every one of those
  the same after the derivation as before;
* everything a segment has memoized equals a fresh build over its rows;
* every version meets the segment policy.

Explicit examples pin the shapes the segment policy takes - a segment
kept, a tier merge, a segment rewritten at the dead share, an emptied
segment dropped: each builds over its new segments alone, shares the
rest by identity, and keeps the rows in insertion order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Relation, evaluate
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
from tests.conftest import assert_tiered
from tests.relational.logical import logical_of

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
                    # selection's rows in relation order
                    scan = IndexScan(
                        index, "r", relation.schema, lower=lower, upper=upper,
                        lower_inclusive=inclusive, upper_inclusive=inclusive,
                    )
                    assert execute(scan, batch_size=2).rows == evaluate(logical_of(scan)).rows


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


@settings(max_examples=300, deadline=None)
@given(history=histories)
def test_every_version_answers_like_a_fresh_build_and_parents_are_untouched(history):
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
        if op[0] in ("append", "delete", "update", "compact"):
            assert_tiered(successor)
        relation = successor


@pytest.mark.parametrize("planned_first", [True, False], ids=["planned-first", "derived-first"])
def test_unmergeable_key_leaves_that_index_unbuilt_and_listed(planned_first):
    """Whether a planner reads the version before or after its successors
    are derived, the definition stays listed and builds again once the
    column sorts."""
    relation = Relation(SCHEMA, [(i, "x", 0) for i in range(10)])
    ensure_index(relation, ["a"], kind="sorted", name="by_a")
    ensure_index(relation, ["b"], kind="sorted", name="by_b")
    ensure_index(relation, ["a"], kind="hash", name="hash_a")
    # five rows merge with the ten: one segment, a string among its ints
    successor = relation.with_appended([("one", "z", 2)] + [(i, "y", 1) for i in range(10, 14)])
    assert len(successor.segments()) == 1
    assert {i.name for i in built_indexes_on(successor)} == {"by_b", "hash_a"}
    if planned_first:  # a planner cannot sort the column either
        assert {i.name for i in indexes_on(successor)} == {"by_b", "hash_a"}
    deleted = successor.with_deleted([10])
    repaired = deleted.with_deleted([11, 12])
    for version in (successor, deleted, repaired):
        assert index_defs_on(version) is index_defs_on(relation)  # still listed
    # one dead row in fifteen, under the dead share: the dead key still
    # sits in its segment, nothing sorts yet, and a VACUUM leaves it there
    assert deleted.segments() == successor.segments()
    assert deleted.compacted() is deleted
    assert {i.name for i in indexes_on(deleted)} == {"by_b", "hash_a"}
    assert {i.name for i in indexes_on(successor)} == {"by_b", "hash_a"}
    _assert_like_fresh(successor)
    # at the dead share the segment is rewritten without the offending
    # row, and the definition builds again
    assert repaired.segments() != deleted.segments()
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
    relation = Relation(SCHEMA, [(2 if i == 0 else 1, "x", i) for i in range(10)])
    assert relation.column_all_equal(1, "x") and not relation.column_all_equal(0, 1)
    (base,) = relation.segments()
    grown = relation.with_appended([(3, "x", 10)])
    assert grown.column_all_equal(1, "x")  # the new segment agrees
    flipped = grown.with_appended([(4, "y", 11)])
    assert not flipped.column_all_equal(1, "x")
    shrunk = flipped.with_deleted([11])  # the dissenting row dies
    assert shrunk.column_all_equal(1, "x")
    assert shrunk.with_deleted([0]).column_all_equal(1, "x")
    assert shrunk.compacted().column_all_equal(1, "x")
    # one dead row of ten stays in the base: its count less the dead row
    assert not relation.with_deleted([0]).column_all_equal(0, 2)
    assert relation.with_deleted([0]).column_all_equal(0, 1)
    # every version read the base segment's own count of "x", made once
    assert shrunk.segments()[0] is base
    assert [v for k, v in base._memo.items() if k[1:] == (1, "x")] == [10]
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


@pytest.fixture
def builds(monkeypatch):
    """The row count of every index structure build, in order."""
    calls = []
    for cls in (HashIndex, SortedIndex):
        real = cls._build

        def counted(rows, positions, real=real):
            calls.append(len(rows))
            return real(rows, positions)

        monkeypatch.setattr(cls, "_build", staticmethod(counted))
    return calls


BASE_ROWS = [((i % 4) or None, B_VALUES[i % 3], i) for i in range(60)]
APPENDED = [((i % 3) or None, "z", 100 + i) for i in range(15)]


@pytest.mark.parametrize(
    "write, shape, built",
    [
        # four rows beside sixty: a segment of their own, the base kept
        (lambda base: base.with_appended(APPENDED[:4]), [60, 4], [4] * 4),
        # fifteen: sixty is at most T times fifteen, so the tiers merge
        (lambda base: base.with_appended(APPENDED), [75], [75] * 4),
        # a fifth of the base dead: it is rewritten alone, the newer
        # segment kept
        (
            lambda base: base.with_appended(APPENDED[:4]).with_deleted(range(0, 60, 5)),
            [48, 4],
            [48, 4] * 4,
        ),
        # every row of the newer segment dead: it is dropped, unindexed
        (lambda base: base.with_appended(APPENDED[:4]).with_deleted(range(60, 64)), [60], []),
    ],
    ids=["kept", "tier-merge", "dead-share", "emptied"],
)
def test_policy_shapes_build_their_new_segments_alone(builds, write, shape, built):
    base = _fully_built(BASE_ROWS)
    before = _answers(base)
    builds.clear()
    written = write(base)
    assert [len(segment.rows) for segment in written.segments()] == shape
    assert builds == []  # a write builds no index structure
    for _ in range(2):  # the first use of each handle, then a second
        for index in built_indexes_on(written):
            index.runs()
    # each index over each segment of the version that no version built
    # before, once: a segment the write made and dropped never builds
    assert builds == built
    for segment, _ in written._runs:
        if segment in base.segments():  # kept: all it built, by identity
            assert segment._memo.keys() == base.segments()[0]._memo.keys()
    assert_tiered(written)
    _assert_like_fresh(written)
    _assert_memos_like_fresh(written)
    # the base answers exactly as before
    assert _answers(base) == before
    _assert_memos_like_fresh(base)


def test_rows_keep_insertion_order_through_merges_and_rewrites():
    relation = Relation(SCHEMA, [(i, "x", i) for i in range(6)])
    model = list(range(6))
    for step in range(40):
        relation = relation.with_appended([(100 + step, "y", step)] * (1 + step % 5))
        model += [100 + step] * (1 + step % 5)
        if step % 3 == 0:  # the oldest live row, and one in the middle
            dead = {0, len(model) // 2}
            relation = relation.with_deleted(_ordinals(sorted(dead), relation))
            model = [key for at, key in enumerate(model) if at not in dead]
        assert [row[0] for row in relation.rows] == model
        assert_tiered(relation)
