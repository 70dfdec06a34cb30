"""Generated kernels test a condition's truth, not its value.

A kernel's ``if`` (selection, fused pipeline, probe loop) and the operands
of AND / OR / NOT only need truth, so the code generator emits them
without the ``bool(...)`` a *value* of AND / OR needs (Python's ``and`` /
``or`` return an operand).  Over drawn AND / OR / NOT trees on nullable
columns, with and without NULL literals, each kernel must keep exactly the
rows the bound (interpreted) predicate keeps; where a logical value is
read as a value - ``map_kernel``, the operand of ``IS NULL`` - it is still
``True`` / ``False``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.relational import Relation, columnar
from repro.relational.columnar import map_kernel, probe_kernel, selection_kernel
from repro.relational.expressions import (
    And,
    Col,
    Comparison,
    IsNull,
    Lit,
    Not,
    Or,
    has_null_literal,
    reset_compile_cache,
)
from repro.relational.index import SortedIndex, probe_table
from repro.relational.physical import FusedPipeline, IndexScan, execute
from repro.relational.schema import Schema

VALUES = ["a", "b", "c", "d"]
SCHEMA = Schema(VALUES)
OUTER = Schema(["k", "a", "b"])
INNER = Schema(["k2", "c", "d"])


def trees(names, null_literals: bool, valued: bool = True):
    """AND / OR / NOT trees over comparisons, bare columns and IS NULL;
    ``valued`` also draws IS NULL over a subtree (a value context)."""
    column = st.sampled_from(names).map(Col)
    literal = st.sampled_from([0, 1, 2] + [None] * null_literals).map(Lit)
    leaves = st.one_of(
        column,  # a bare value, tested for truth
        st.builds(IsNull, column),
        st.builds(Comparison, st.sampled_from(["=", "<>", "<"]), column, literal),
        st.builds(Comparison, st.sampled_from(["=", "<"]), column, column),
    )

    def extend(inner):
        operands = st.lists(inner, min_size=2, max_size=3)
        steps = [
            operands.map(lambda ops: And(*ops)),
            operands.map(lambda ops: Or(*ops)),
            st.builds(Not, inner),
        ]
        if valued:
            steps.append(st.builds(IsNull, inner))
        return st.one_of(steps)

    return st.recursive(leaves, extend, max_leaves=6)


def rows_of(width: int, clean: bool):
    value = st.sampled_from([0, 1, 2] if clean else [None, 0, 1, 2])
    return st.lists(st.tuples(*[value] * width), min_size=1, max_size=12)


def columns(rows):
    return [list(column) for column in zip(*rows)]


def fused_over_a_range(predicate, positions, rows):
    """A fused pipeline over a range ``Index Scan`` of ``(k, *row)`` rows,
    ``k`` the row's ordinal: every row is in the range ``k >= 0``."""
    relation = Relation(["k"] + VALUES, [(k, *row) for k, row in enumerate(rows)])
    scan = IndexScan(SortedIndex(relation, ["k"]), "r", relation.schema, lower=0)
    schema = relation.schema if positions is None else relation.schema.project(
        [relation.schema.names[p] for p in positions]
    )
    return FusedPipeline(scan, predicate, positions, schema)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_selection_and_pipeline_keep_what_the_bound_predicate_keeps(clean, data):
    predicate = data.draw(trees(VALUES, null_literals=data.draw(st.booleans())))
    rows = data.draw(rows_of(len(VALUES), clean))
    bound = predicate.bind(SCHEMA)
    kept = [i for i, row in enumerate(rows) if bound(row)]
    assert selection_kernel(predicate, SCHEMA)(columns(rows), len(rows)) == kept
    fused = fused_over_a_range(predicate, None, rows)
    assert execute(fused, batch_size=5).rows == [(i, *rows[i]) for i in kept]
    if clean and not has_null_literal(predicate):  # as the executor picks it
        fast = selection_kernel(predicate, SCHEMA, assume_non_null=True)
        assert fast(columns(rows), len(rows)) == kept


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_probe_keeps_what_the_bound_conditions_keep(clean, data):
    null_literals = data.draw(st.booleans())
    residual = data.draw(trees(VALUES, null_literals))
    inner_filter = data.draw(trees(["c", "d"], null_literals))
    outer = data.draw(rows_of(3, clean))
    inner = data.draw(rows_of(3, clean))
    combined = OUTER.concat(INNER)
    kernel = probe_kernel(
        combined, 3, True, [0], residual, [(inner_filter, INNER)], range(6), None
    )
    table = probe_table((row[0], row) for row in inner if row[0] is not None)
    out, count = kernel(table.get, columns(outer), clean)

    keeps, passes = residual.bind(combined), inner_filter.bind(INNER)
    expected = [
        o + i
        for o in outer
        if o[0] is not None
        for i in inner
        if i[0] == o[0] and passes(i) and keeps(o + i)
    ]
    assert count == len(expected)
    assert (list(zip(*out)) if count else []) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_logical_value_is_a_bool(data):
    expression = data.draw(trees(VALUES, null_literals=data.draw(st.booleans())))
    rows = data.draw(rows_of(len(VALUES), clean=False))
    values = map_kernel(expression, SCHEMA)(columns(rows), len(rows))
    bound = expression.bind(SCHEMA)
    assert values == [bound(row) for row in rows]
    if isinstance(expression, (And, Or, Not, IsNull, Comparison)):
        assert all(type(value) is bool for value in values)


def test_and_of_two_values_is_true_not_the_second_value():
    both = And(Col("a"), Col("b"))
    assert map_kernel(both, SCHEMA)([[2, 0, None], [3, 5, 1], [0] * 3, [0] * 3], 3) == [
        True,
        False,
        False,
    ]
    assert map_kernel(Or(Col("a"), Col("b")), SCHEMA)([[0], [7], [0], [0]], 1) == [True]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_no_generated_condition_calls_bool(data):
    predicate = data.draw(trees(VALUES, null_literals=True, valued=False))
    inner_filter = data.draw(trees(["c", "d"], null_literals=True, valued=False))
    sources = []
    real = columnar._build_kernel

    def capture(source, context):
        sources.append(source)
        return real(source, context)

    reset_compile_cache()  # a cached kernel would skip the generator
    with mock.patch.object(columnar, "_build_kernel", capture):
        execute(fused_over_a_range(predicate, [1, 2], [(0, 1, None, 2)]))
        selection_kernel(predicate, SCHEMA)
        selection_kernel(predicate, SCHEMA, assume_non_null=True)
        probe_kernel(
            OUTER.concat(INNER), 3, True, [0], predicate, [(inner_filter, INNER)], [1, 4], None
        )
        probe_kernel(
            OUTER.concat(INNER), 3, True, [0], predicate, [(inner_filter, INNER)], [1, 4], 1
        )
    assert len(sources) == 5  # the pipeline's selection binds its own schema
    assert not [source for source in sources if "bool(" in source]
