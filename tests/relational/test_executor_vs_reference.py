"""The executor (``column_batches``) against the reference (``rows()``).

Four families:

* ColumnBatch mechanics — transposition round trips at the boundaries
  (empty, one row, zero-width schemas);
* the per-operator sweep — every concrete physical operator, the five
  row-bridged ones included, built over inputs of 0..8 rows (NULL keys,
  empty sides, folded outputs, ``$n`` keys and bounds) and executed at
  batch sizes {1, 2, 7, 1024} on *one* plan object, each answer equal to
  the tuple-at-a-time reference;
* structure — every concrete operator defines exactly the two protocols
  and the sweep reaches every one of them;
* join keys — NULL, ``1`` against ``1.0`` and int against str keys give
  every equi-join (hashed, or probing a hash or a sorted index) and the
  default planner the answer Python ``==`` gives;
* property tests — randomized plans (with and without fusion and
  indexes, int and float keys) evaluate identically through both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Descriptor, URelation, WorldTable
from repro.relational import physical as physical_module
from repro.relational import planner as planner_module
from repro.relational.algebra import (
    Distinct,
    Join,
    Product,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.relational.columnar import ColumnBatch
from repro.relational.explain import explain_analyze
from repro.relational.expressions import Expression, Param, col, executing, lit
from repro.relational.index import ensure_index
from repro.relational.optimizer import optimize
from repro.relational.physical import (
    BATCH_SIZE,
    Append,
    Confidence,
    Except,
    ExtendOp,
    Filter,
    FusedPipeline,
    HashDistinct,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    NestedLoopJoin,
    PhysicalPlan,
    Projection,
    ProjectionAs,
    SemiJoinOp,
    SeqScan,
    execute,
)
from repro.relational.planner import plan_physical, run
from repro.relational.relation import Relation

#: Batch sizes every case runs at; the input sizes put empty, singleton,
#: exactly-one-batch and one-batch-plus/minus-one inputs beside each.
SWEEP = [1, 2, 7, 1024]
SIZES = list(range(9))


def left_relation(n: int) -> Relation:
    # every third key is NULL, values repeat so distinct/except have work
    rows = [(None if i % 3 == 2 else i % 5, f"v{i % 4}") for i in range(n)]
    return Relation(["l.k", "l.v"], rows)


def right_relation(n: int, float_keys: bool = False) -> Relation:
    # with ``float_keys`` a key k is stored as k.0, which joins l.k = k
    number = float if float_keys else int
    rows = [(None if i % 4 == 3 else number(i % 5), i * 10) for i in range(n)]
    return Relation(["r.k", "r.w"], rows)


def left(n: int) -> SeqScan:
    return SeqScan(left_relation(n), "l")


def right(n: int, float_keys: bool = False) -> SeqScan:
    return SeqScan(right_relation(n, float_keys), "r")


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


def assert_executor_matches_reference(plan, sizes=SWEEP) -> None:
    via_rows = execute(plan, mode="rows")
    for size in sizes:  # the same plan object: operators hold no run state
        served = execute(plan, mode="columns", batch_size=size)
        assert served.schema.names == via_rows.schema.names
        assert bag(served) == bag(via_rows), size


class TestColumnBatch:
    def test_round_trip(self):
        rows = [(1, "a"), (None, "b"), (3, None)]
        batch = ColumnBatch.from_rows(rows, 2)
        assert batch.length == len(batch) == 3
        assert batch.to_rows() == rows

    def test_empty(self):
        batch = ColumnBatch.from_rows([], 2)
        assert batch.length == 0
        assert batch.columns == [[], []]
        assert batch.to_rows() == []

    def test_zero_width(self):
        batch = ColumnBatch([], 3)
        assert batch.to_rows() == [(), (), ()]

    @pytest.mark.parametrize("positions", [[1, 0, 1], [1], []])
    def test_select_is_the_same_projection_in_either_form(self, positions):
        rows = [(1, "a"), (None, "b"), (3, None)]
        from_rows = ColumnBatch.from_rows(rows, 2).select(positions)
        from_columns = ColumnBatch([[1, None, 3], ["a", "b", None]], 3).select(positions)
        expected = [tuple(row[p] for p in positions) for row in rows]
        assert from_rows.to_rows() == from_columns.to_rows() == expected
        assert from_rows.length == from_columns.length == 3
        assert list(map(list, from_rows.columns)) == list(map(list, from_columns.columns))


# ----------------------------------------------------------------------
# the per-operator sweep
# ----------------------------------------------------------------------
def _index_scan(n, kind="sorted", **access):
    relation = right_relation(n)
    index = ensure_index(relation, ["r.k"], kind=kind)
    return IndexScan(index, "r", relation.schema, **access)


def _index_join(n, flipped=False, kind="hash", float_keys=False, **extra):
    inner = right_relation(n, float_keys)
    index = ensure_index(inner, ["r.k"], kind=kind)
    probe = IndexScan(index, "r", inner.schema, probe=True)
    return IndexNestedLoopJoin(
        left(n), probe, index, [0], [("l.k", "r.k")], flipped=flipped, **extra
    )


def _two_key_relation(side, n, mistyped=False):
    # keys (k, w) repeat, either one is NULL on some row, and with
    # ``mistyped`` two rows carry the string "s" where the other side of
    # the join has ints (never the indexed side: sorted indexes need one
    # key type)
    rows = []
    for i in range(n):
        k = None if i % 5 == 3 else i % 3
        w = None if i % 7 == 4 else i % 2
        if mistyped and i % 4 == 1:
            k = "s"
        if mistyped and i == 6:
            w = "s"
        rows.append((k, w, i))
    return Relation([f"{side}.k", f"{side}.w", f"{side}.v"], rows)


TWO_KEYS = [("l.k", "r.k"), ("l.w", "r.w")]


def _two_key_hash_join(n, build):
    return HashJoin(
        SeqScan(_two_key_relation("l", n, mistyped=True), "l"),
        SeqScan(_two_key_relation("r", n), "r"),
        TWO_KEYS,
        residual=col("l.v") >= col("r.v"),
        build=build,
    )


def _two_key_index_join(n, kind, flipped=False):
    inner = _two_key_relation("r", n)
    index = ensure_index(inner, ["r.k", "r.w"], kind=kind)
    probe = IndexScan(index, "r", inner.schema, probe=True)
    return IndexNestedLoopJoin(
        SeqScan(_two_key_relation("l", n, mistyped=True), "l"),
        probe,
        index,
        [0, 1],
        TWO_KEYS,
        residual=col("l.v") >= col("r.v"),
        flipped=flipped,
        inner_filters=[(col("r.v") < lit(7), inner.schema)],
    )


class Odd(Expression):
    """An expression type the code generator has never heard of (declared
    the plain way, without ``__slots__``): kernels reach it through its
    bound closure."""

    def __init__(self, operand):
        self.operand = operand

    def bind(self, schema):
        operand = self.operand.bind(schema)
        return lambda row: operand(row) is not None and operand(row) % 2 == 1

    def columns(self):
        return self.operand.columns()

    def __repr__(self):
        return f"odd({self.operand!r})"


def _folded(join, positions, names):
    join.set_output(positions, join.schema.project(names))
    return join


def _fused_over_index_scan(n):
    source = _index_scan(n, lower=1, upper=3)
    return FusedPipeline(
        source, col("r.w") > lit(0), [1, 0], source.schema.project(["r.w", "r.k"])
    )


def _confidence(n):
    world = WorldTable({"x": [1, 2], "y": [1, 2]})
    descriptors = [Descriptor(), Descriptor(x=1), Descriptor(x=2), Descriptor(x=1, y=2)]
    u = URelation.build(
        [(descriptors[i % 4], i // 2, (i % 3,)) for i in range(n)],
        tid_name="tid_r",
        value_names=["id"],
        d_width=2,
    )
    return Confidence(SeqScan(u.relation, "u"), 2, 1, ["id"], world, method="exact")


CASES = {
    "seq_scan": left,
    "filter": lambda n: Filter(left(n), col("l.k") > lit(1)),
    "filter_all_rows_pass": lambda n: Filter(left(n), col("l.v").ne(lit("nope"))),
    "filter_unknown_expression": lambda n: Filter(left(n), Odd(col("l.k"))),
    "projection": lambda n: Projection(left(n), ["l.v"]),
    "projection_as": lambda n: ProjectionAs(
        left(n), [("l.k", "k1"), ("l.k", "k2"), ("l.v", "v")]
    ),
    "extend": lambda n: ExtendOp(
        left(n), [("kk", col("l.k") + col("l.k")), ("one", lit(1))]
    ),
    "extend_unknown_expression": lambda n: ExtendOp(left(n), [("odd", Odd(col("l.k")))]),
    "rename": lambda n: plan_physical(Rename(Scan(left_relation(n), "l"), {"l.k": "x.k"})),
    "fused_pipeline": lambda n: FusedPipeline(
        left(n), col("l.k") > lit(0), [1, 0], left(n).schema.project(["l.v", "l.k"])
    ),
    "fused_pipeline_filter_only": lambda n: FusedPipeline(
        left(n), col("l.v").ne(lit("v1")), None, left(n).schema
    ),
    "fused_pipeline_over_index_scan": _fused_over_index_scan,
    "fused_pipeline_unknown_expression": lambda n: plan_physical(
        Project(Select(Scan(left_relation(n), "l"), Odd(col("l.k"))), ["l.v"]), fuse=True
    ),
    "index_scan_point": lambda n: _index_scan(n, kind="hash", point=1),
    "index_scan_point_param": lambda n: _index_scan(n, kind="hash", point=Param(0)),
    "index_scan_range_residual": lambda n: _index_scan(
        n, lower=1, upper=3, upper_inclusive=False, residual=col("r.w") > lit(10)
    ),
    "index_scan_range_params": lambda n: _index_scan(n, lower=Param(0), upper=Param(1)),
    "index_scan_null_param_bound": lambda n: _index_scan(n, lower=Param(0)),
    "index_scan_full": _index_scan,
    "hash_join": lambda n: HashJoin(left(n), right(n), [("l.k", "r.k")]),
    "hash_join_empty_build": lambda n: HashJoin(left(n), right(0), [("l.k", "r.k")]),
    "hash_join_residual": lambda n: HashJoin(
        left(n), right(n), [("l.k", "r.k")], residual=col("r.w") > lit(0)
    ),
    "hash_join_folded_output": lambda n: _folded(
        HashJoin(left(n), right(n), [("l.k", "r.k")], residual=col("r.w") > lit(0)),
        [3, 1],
        ["r.w", "l.v"],
    ),
    "hash_join_two_keys": lambda n: _two_key_hash_join(n, "right"),
    "hash_join_two_keys_build_left": lambda n: _two_key_hash_join(n, "left"),
    "hash_join_two_keys_folded_output": lambda n: _folded(
        _two_key_hash_join(n, "right"), [5, 0, 2], ["r.v", "l.k", "l.v"]
    ),
    "hash_join_float_keys": lambda n: HashJoin(
        left(n), right(n, float_keys=True), [("l.k", "r.k")]
    ),
    "hash_join_float_keys_build_left": lambda n: HashJoin(
        left(n), right(n, float_keys=True), [("l.k", "r.k")], build="left"
    ),
    "hash_join_unknown_expression": lambda n: HashJoin(
        left(n), right(n), [("l.k", "r.k")], residual=Odd(col("l.k") + col("r.w"))
    ),
    "index_join": _index_join,
    "index_join_float_keys": lambda n: _index_join(n, float_keys=True),
    "index_join_float_keys_sorted": lambda n: _index_join(n, kind="sorted", float_keys=True),
    "index_join_folded_output": lambda n: _folded(
        _index_join(n), [2, 1], ["r.k", "l.v"]
    ),
    "index_join_flipped_filtered": lambda n: _index_join(
        n,
        flipped=True,
        kind="sorted",
        residual=col("r.w") >= lit(10),
        inner_filters=[(col("r.w") < lit(60), right_relation(n).schema)],
    ),
    "index_join_two_keys": lambda n: _two_key_index_join(n, "hash"),
    "index_join_two_keys_sorted": lambda n: _two_key_index_join(n, "sorted"),
    "index_join_two_keys_flipped_folded_output": lambda n: _folded(
        _two_key_index_join(n, "sorted", flipped=True), [2, 3, 5], ["r.v", "l.k", "l.v"]
    ),
    "index_join_unknown_expression": lambda n: _index_join(
        n,
        residual=Odd(col("l.k")),
        inner_filters=[(~Odd(col("r.w")), right_relation(n).schema)],
    ),
    "nested_loop_cross": lambda n: NestedLoopJoin(left(n), right(min(n, 4)), None),
    "nested_loop_theta": lambda n: NestedLoopJoin(
        left(n), right(n), col("l.k") < col("r.k")
    ),
    "semi_join_hash": lambda n: SemiJoinOp(
        left(n), right(n), col("l.k").eq(col("r.k")) & (col("r.w") > lit(0))
    ),
    "semi_join_float_keys": lambda n: SemiJoinOp(
        left(n), right(n, float_keys=True), col("l.k").eq(col("r.k"))
    ),
    "semi_join_loop": lambda n: SemiJoinOp(left(n), right(n), col("l.k") < col("r.k")),
    "hash_distinct": lambda n: HashDistinct(left(n)),
    "append": lambda n: Append(
        SeqScan(left_relation(n), "a"), SeqScan(left_relation(max(n - 1, 0)), "b")
    ),
    "except": lambda n: Except(
        SeqScan(left_relation(n), "a"), SeqScan(left_relation(n // 2), "b")
    ),
    "confidence": _confidence,
}


#: The ``$n`` values the cases with parameter slots execute under.
CASE_PARAMS = {
    "index_scan_point_param": (2,),
    "index_scan_range_params": (1, 4),
    "index_scan_null_param_bound": (None,),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_operator_sweep(case, n):
    with executing(CASE_PARAMS.get(case, ())):
        assert_executor_matches_reference(CASES[case](n))


def test_param_bounds_follow_their_binding():
    """One plan object, executed under one binding after another (no
    per-plan leftovers)."""
    relation = right_relation(8)
    index = ensure_index(relation, ["r.k"], kind="sorted")
    scan = IndexScan(index, "r", relation.schema, lower=Param(0), upper=Param(1))
    for bounds in ([1, 3], [0, 0], [2, 4], [1, 3]):
        with executing(bounds):
            assert_executor_matches_reference(scan)
            keys = {row[0] for row in execute(scan).rows}
        assert keys == {k for k in (0, 1, 2, 4) if bounds[0] <= k <= bounds[1]}


# ----------------------------------------------------------------------
# structure: two protocols, nothing else
# ----------------------------------------------------------------------
def _concrete_operators():
    found, stack = set(), [PhysicalPlan]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__ in (physical_module.__name__, planner_module.__name__):
                found.add(sub)
            stack.append(sub)
    return found


def _operators_in(plan):
    yield type(plan)
    for child in plan.children:
        yield from _operators_in(child)


def test_every_operator_defines_exactly_the_two_protocols():
    operators = _concrete_operators()
    assert planner_module._RenameOp in operators and len(operators) == 16
    for operator in operators:
        assert "rows" in vars(operator), operator
        assert "_column_batches" in vars(operator), operator
    for klass in operators | {PhysicalPlan}:
        assert not hasattr(klass, "batches") and not hasattr(klass, "_batches"), klass


def test_the_sweep_reaches_every_operator():
    swept = {op for build in CASES.values() for op in _operators_in(build(5))}
    assert swept == _concrete_operators()


class TestBatchMechanics:
    def test_scan_batch_sizes(self):
        batches = list(left(5).column_batches(4))
        assert [b.length for b in batches] == [4, 1]

    def test_nonpositive_batch_size_degrades_to_one(self):
        assert [b.length for b in left(3).column_batches(0)] == [1, 1, 1]

    def test_batch_stats_recorded(self):
        scan = left(8)
        plan = Filter(scan, col("l.k") > lit(0))
        execute(plan, batch_size=4)
        assert scan.actual_rows == 8
        assert scan.actual_batches == 2
        assert plan.actual_rows == sum(
            1 for r in left_relation(8).rows if r[0] is not None and r[0] > 0
        )

    def test_default_batch_size_used(self):
        scan = left(BATCH_SIZE + 1)
        out = execute(scan)  # defaults: the executor, BATCH_SIZE
        assert len(out) == BATCH_SIZE + 1
        assert scan.actual_batches == 2

    @pytest.mark.parametrize("mode", ["blocks", "vectors"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="'rows' or 'columns'"):
            execute(left(1), mode=mode)

    def test_explain_analyze_reports_actuals(self):
        plan = HashJoin(left(5), right(4), [("l.k", "r.k")])
        result, text = explain_analyze(plan, batch_size=4)
        assert "actual rows=" in text and "batches=" in text
        assert f"actual rows={len(result)}" in text.splitlines()[0]


def _equi_joins(lhs: Relation, rhs: Relation):
    """Every join ``l.k = r.k`` can run as: hashed with either build side,
    and probing a hash or a sorted index on either side."""
    pairs = [("l.k", "r.k")]
    joins = [
        HashJoin(SeqScan(lhs, "l"), SeqScan(rhs, "r"), pairs, build=b)
        for b in ("left", "right")
    ]
    l, r = ("l", lhs), ("r", rhs)
    for kind in ("hash", "sorted"):
        for (outer_name, outer), (inner_name, inner), flipped in ((l, r, False), (r, l, True)):
            index = ensure_index(inner, [f"{inner_name}.k"], kind=kind)
            probe = IndexScan(index, inner_name, inner.schema, probe=True)
            joins.append(
                IndexNestedLoopJoin(
                    SeqScan(outer, outer_name),
                    probe,
                    index,
                    [0],  # every relation here keys on its first column
                    [(f"{outer_name}.k", f"{inner_name}.k")],
                    flipped=flipped,
                )
            )
    return joins


class TestJoinKeys:
    """Keys join when Python ``==`` says so (``1`` and ``1.0`` do, NULL
    and an int against a str never do), whichever join runs them, with or
    without indexes on either side."""

    def assert_every_join_gives(self, lhs, rhs, expected):
        for join in _equi_joins(lhs, rhs):
            assert_executor_matches_reference(join)
            assert sorted(execute(join).rows) == expected, join
        logical = Join(Scan(lhs, "l"), Scan(rhs, "r"), col("l.k").eq(col("r.k")))
        for knobs in ({}, {"mode": "rows"}, {"use_indexes": False}):
            assert sorted(run(logical, **knobs).rows) == expected, knobs

    def test_null_keys_never_join(self):
        self.assert_every_join_gives(
            Relation(["l.k"], [(None,), (1,), (2,), (1,)]),
            Relation(["r.k"], [(1,), (None,), (3,)]),
            [(1, 1), (1, 1)],
        )

    def test_int_key_joins_equal_float_key(self):
        self.assert_every_join_gives(
            Relation(["l.k", "l.v"], [(1, "l"), (2, "m")]),
            Relation(["r.k", "r.w"], [(1.0, "r"), (2.5, "s")]),
            [(1, "l", 1.0, "r")],
        )

    def test_int_and_str_keys_never_join(self):
        self.assert_every_join_gives(
            Relation(["l.k"], [(1,), (2,)]),
            Relation(["r.k"], [("a",), ("b",)]),
            [],
        )


# ----------------------------------------------------------------------
# property tests: executor == reference, fused and unfused, indexed and
# sequential
# ----------------------------------------------------------------------
values = st.one_of(
    st.integers(min_value=0, max_value=9), st.sampled_from([1.0, 2.0]), st.none()
)
rows_r = st.lists(st.tuples(values, values), min_size=0, max_size=30)
rows_s = st.lists(st.tuples(values, values), min_size=0, max_size=30)
batch_sizes = st.sampled_from([0, 1, 2, 3, 7, 1023, 1024, 1025])


@st.composite
def predicates(draw, columns):
    column = col(draw(st.sampled_from(columns)))
    kind = draw(
        st.sampled_from(["eq", "ne", "lt", "gt", "between", "in", "isnull", "and"])
    )
    v = draw(st.integers(min_value=0, max_value=9))
    if kind == "eq":
        return column.eq(lit(v))
    if kind == "ne":
        return column.ne(lit(v))
    if kind == "lt":
        return column < lit(v)
    if kind == "gt":
        return column > lit(v)
    if kind == "between":
        lo = draw(st.integers(min_value=0, max_value=9))
        return column.between(min(lo, v), max(lo, v))
    if kind == "in":
        return column.in_list([v, (v + 3) % 10])
    if kind == "isnull":
        return column.is_null()
    other = col(draw(st.sampled_from(columns)))
    return (column >= lit(min(v, 5))) & (other <= lit(max(v, 5)))


@st.composite
def plans(draw):
    r = Relation(["r.a", "r.b"], draw(rows_r))
    s = Relation(["s.c", "s.d"], draw(rows_s))
    for rel, names in ((r, ["r.a", "r.b"]), (s, ["s.c", "s.d"])):
        for name in names:
            ensure_index(rel, [name], kind="hash")
            ensure_index(rel, [name], kind="sorted")
    r_scan, s_scan = Scan(r, "r"), Scan(s, "s")
    shape = draw(
        st.sampled_from(
            [
                "select",
                "select_select",
                "project_select",
                "rename_select",
                "join",
                "join_select",
                "project_join",
                "distinct",
                "product",
                "union",
            ]
        )
    )
    if shape == "select":
        return Select(r_scan, draw(predicates(["r.a", "r.b"])))
    if shape == "select_select":
        inner = Select(r_scan, draw(predicates(["r.a", "r.b"])))
        return Select(inner, draw(predicates(["r.a", "r.b"])))
    if shape == "project_select":
        return Project(
            Select(r_scan, draw(predicates(["r.a", "r.b"]))), ["r.b", "r.a", "r.b"][:2]
        )
    if shape == "rename_select":
        renamed = Rename(r_scan, {"r.a": "x.a"})
        return Project(Select(renamed, draw(predicates(["x.a", "r.b"]))), ["x.a"])
    join = Join(
        Select(r_scan, draw(predicates(["r.a", "r.b"]))),
        s_scan,
        col("r.a").eq(col("s.c")),
    )
    if shape == "join":
        return join
    if shape == "join_select":
        return Select(join, draw(predicates(["r.b", "s.d"])))
    if shape == "project_join":
        return Project(join, ["r.b", "s.d"])
    if shape == "distinct":
        return Distinct(Project(Select(r_scan, draw(predicates(["r.a"]))), ["r.b"]))
    if shape == "product":
        return Select(Product(r_scan, s_scan), draw(predicates(["r.a", "s.d"])))
    return Union(Project(r_scan, ["r.a"]), Project(s_scan, ["s.c"]))


@given(plans(), batch_sizes, st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_executor_agrees_with_reference(plan, batch_size, use_indexes, optimize_first):
    logical = optimize(plan) if optimize_first else plan
    unfused = plan_physical(logical, use_indexes=use_indexes, fuse=False)
    fused = plan_physical(logical, use_indexes=use_indexes, fuse=True)
    via_rows = execute(unfused, mode="rows")
    served = execute(fused, mode="columns", batch_size=batch_size)
    assert bag(served) == bag(via_rows)
    assert served.schema.names == via_rows.schema.names
    # either tree is protocol-agnostic: identical answers both ways
    assert bag(execute(fused, mode="rows")) == bag(via_rows)
    assert bag(execute(unfused, mode="columns", batch_size=batch_size)) == bag(via_rows)

