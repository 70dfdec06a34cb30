"""``Confidence`` grouping inside the probing join below it, and certain groups.

Over a ``HashJoin`` or an ``IndexNestedLoopJoin`` the executor groups in
the join's generated probe kernel, and a value group that meets a certain
row (every ``c`` column the trivial variable) stops growing.  The
reference, ``algebra.evaluate`` of the equivalent logical plan, does
neither.  Both must give the same rows and the same ``conf`` summary, and
the join must report the rows and batches its own iterator produces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import WorldTable
from repro.core.descriptor import TOP_VALUE, TOP_VARIABLE
from repro.relational import Relation, col, evaluate, lit
from repro.relational.index import HashIndex
from repro.relational.physical import (
    Confidence,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    SeqScan,
    execute,
)

from tests.relational.logical import logical_of

TOP = (TOP_VARIABLE, TOP_VALUE)
PAIRS = [TOP, ("x", 1), ("x", 2), ("y", 1), ("y", 2)]
OUTER = ["o.c", "o.w", "o.tid", "o.n"]
INNER = ["i.c", "i.w", "i.tid", "i.v"]
#: What the join hands ``Confidence``: two descriptor pairs, a tid, a value.
FOLDED = ["o.c", "o.w", "i.c", "i.w", "o.tid", "i.v"]
#: ψ: the two descriptor pairs are consistent.
PSI = col("o.c").ne(col("i.c")) | col("o.w").eq(col("i.w"))
#: A residual over a nullable column: the kernel's NULL-guarded body.
NULLABLE = PSI & (col("o.n").is_null() | (col("o.n") < lit(5)))
JOINS = ["hash_build_right", "hash_build_left", "index", "index_flipped"]


def world():
    return WorldTable(
        {"x": [1, 2], "y": [1, 2]}, probabilities={"x": [0.3, 0.7], "y": [0.6, 0.4]}
    )


def join_of(kind, outer_rows, inner_rows, residual=PSI, inner_filters=(), folded=FOLDED):
    """A probing join of ``o`` and ``i`` on the tid, its emit folded to ``folded``."""
    outer = Relation(OUTER, outer_rows)
    inner = Relation(INNER, inner_rows)
    if kind.startswith("hash"):
        join = HashJoin(
            SeqScan(outer, "o"),
            SeqScan(inner, "i"),
            [("o.tid", "i.tid")],
            residual,
            build=kind.rsplit("_", 1)[1],
        )
    else:
        index = HashIndex(inner, ["i.tid"])
        join = IndexNestedLoopJoin(
            SeqScan(outer, "o"),
            IndexScan(index, "i", inner.schema, probe=True),
            index,
            [2],
            [("o.tid", "i.tid")],
            residual,
            flipped=kind == "index_flipped",
            inner_filters=[(f, inner.schema) for f in inner_filters],
        )
    combined = join.schema
    join.set_output([combined.resolve(name) for name in folded], combined.project(folded))
    return join


def confidence_over(join, d_width=2):
    return Confidence(join, d_width, 1, ["v"], world(), method="exact")


def assert_folded_matches_reference(conf, size):
    got = execute(conf, batch_size=size)
    summary = dict(conf.last_summary)
    join = conf.child
    counted = (join.actual_rows, join.actual_batches)
    reference = evaluate(logical_of(conf))
    expected = dict(reference.conf)
    assert got.rows == reference.rows
    del summary["seconds"], expected["seconds"]
    assert summary == expected
    unfolded = execute(join, batch_size=size)
    assert counted == (len(unfolded.rows), join.actual_batches)
    # the same input through the grouping loop of a child that is no join
    scanned = Confidence(
        SeqScan(Relation(join.schema, unfolded.rows), "u"),
        conf.d_width, 1, ["v"], conf.world_table, method="exact",
    )
    assert execute(scanned, batch_size=size).rows == reference.rows


def rows_of(values):
    return st.lists(
        st.tuples(st.sampled_from(PAIRS), st.integers(0, 3), st.sampled_from(values)).map(
            lambda r: (*r[0], r[1], r[2])
        ),
        max_size=10,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(JOINS),
    rows_of([None, 0, 6]),
    rows_of([None, 0, 1, 2]),
    st.sampled_from([1, 3, 1024]),
    st.booleans(),
)
def test_folded_grouping_matches_the_reference(kind, outer_rows, inner_rows, size, guarded):
    filters = [col("i.v").ne(lit(2))] if kind.startswith("index") else []
    join = join_of(kind, outer_rows, inner_rows, NULLABLE if guarded else PSI, filters)
    assert_folded_matches_reference(confidence_over(join), size)


@pytest.mark.parametrize("kind", JOINS)
def test_the_guarded_body_runs_over_nullable_columns(kind):
    outer_rows = [("x", 1, 0, None), ("x", 2, 1, 3), (*TOP, 1, 9), ("y", 1, 2, None)]
    inner_rows = [(*TOP, 0, 5), ("x", 1, 1, None), (*TOP, 1, 6), ("y", 2, 2, 5), (*TOP, 2, 5)]
    conf = confidence_over(join_of(kind, outer_rows, inner_rows, NULLABLE))
    assert_folded_matches_reference(conf, 2)
    streamed, _kernel, fast = conf._planned
    assert fast is False and streamed is conf.child.children[0 if kind != "hash_build_left" else 1]


@pytest.mark.parametrize("kind", JOINS)
def test_multi_row_buckets_and_an_inner_filter(kind):
    outer_rows = [("x", 1, t, 0) for t in range(3)] + [("y", 2, t, 0) for t in range(3)]
    inner_rows = [(*TOP, t, v) for t in range(3) for v in (0, 1, 2, 2)]
    filters = [col("i.v").ne(lit(2))] if kind.startswith("index") else []
    conf = confidence_over(join_of(kind, outer_rows, inner_rows, PSI, filters))
    for size in (1, 4, 1024):
        assert_folded_matches_reference(conf, size)


@pytest.mark.parametrize("kind", JOINS)
def test_width_zero_groups_are_certain(kind):
    outer_rows = [("x", 1, t, 0) for t in range(3)]
    inner_rows = [("y", 2, t, t % 2) for t in range(3)] + [("y", 1, 0, 1)]
    join = join_of(kind, outer_rows, inner_rows, None, folded=["o.tid", "i.v"])
    conf = confidence_over(join, d_width=0)
    assert_folded_matches_reference(conf, 2)
    assert execute(conf).rows == [(0, 1.0), (1, 1.0)]


P_X1_OR_Y2 = 1 - (1 - 0.3) * (1 - 0.4)


@pytest.mark.parametrize("kind", JOINS)
@pytest.mark.parametrize(
    "certain, expected",
    [("first", 1.0), ("last", 1.0), ("absent", P_X1_OR_Y2), ("first_pair_only", P_X1_OR_Y2)],
)
def test_a_certain_row_anywhere_makes_its_group_certain(kind, certain, expected):
    """Every outer row meets the one inner row of its tid, which carries
    ⊤ and the value 7; the certain outer row (tid 9) arrives first, last
    or not at all.  A row whose first pair alone is ⊤ is not certain."""
    uncertain = [("x", 1, 0, 0), ("y", 2, 1, 0)]
    inner_rows = [(*TOP, 0, 7), (*TOP, 1, 7), (*TOP, 9, 7), ("x", 1, 8, 7)]
    outer_rows = {
        "first": [(*TOP, 9, 0)] + uncertain,
        "last": uncertain + [(*TOP, 9, 0)],
        "absent": uncertain,
        "first_pair_only": uncertain + [(*TOP, 8, 0)],
    }[certain]
    conf = confidence_over(join_of(kind, outer_rows, inner_rows))
    for size in (1, 1024):
        assert_folded_matches_reference(conf, size)
    ((value, confidence),) = execute(conf).rows
    assert value == 7 and confidence == pytest.approx(expected)
    assert (confidence == 1.0) == (expected == 1.0)
