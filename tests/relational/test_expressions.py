"""Tests for the scalar expression AST: evaluation, NULLs, analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.expressions import (
    And,
    Arithmetic,
    Between,
    Col,
    Comparison,
    FALSE,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    TRUE,
    col,
    compile_expression,
    conjunction,
    disjunction,
    equijoin_pairs,
    lit,
    map_columns,
    split_conjuncts,
)
from repro.relational.schema import Schema
from repro.relational.types import Date

S = Schema(["a", "b", "c"])


def ev(expr, row):
    return expr.bind(S)(row)


class TestBasics:
    def test_col(self):
        assert ev(col("b"), (1, 2, 3)) == 2

    def test_lit(self):
        assert ev(lit(42), (0, 0, 0)) == 42

    def test_comparisons(self):
        assert ev(col("a") < lit(5), (3, 0, 0))
        assert not ev(col("a") < lit(5), (7, 0, 0))
        assert ev(col("a") >= lit(3), (3, 0, 0))
        assert ev(col("a").eq(col("b")), (4, 4, 0))
        assert ev(col("a").ne(col("b")), (4, 5, 0))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("~~", lit(1), lit(2))

    def test_date_comparisons(self):
        assert ev(col("a") > lit(Date("1995-03-15")), (Date("1995-06-01"), 0, 0))

    def test_arithmetic(self):
        assert ev(col("a") + col("b"), (1, 2, 0)) == 3
        assert ev(col("a") * lit(3), (4, 0, 0)) == 12
        assert ev(col("a") - lit(1), (4, 0, 0)) == 3


class TestNullSemantics:
    def test_comparison_with_null_is_false(self):
        assert not ev(col("a").eq(lit(1)), (None, 0, 0))
        assert not ev(col("a") < lit(1), (None, 0, 0))
        assert not ev(col("a").ne(lit(1)), (None, 0, 0))

    def test_arithmetic_propagates_null(self):
        assert ev(col("a") + lit(1), (None, 0, 0)) is None

    def test_is_null(self):
        assert ev(col("a").is_null(), (None, 0, 0))
        assert not ev(col("a").is_null(), (1, 0, 0))

    def test_between_rejects_null(self):
        assert not ev(col("a").between(1, 5), (None, 0, 0))


class TestConnectives:
    def test_and_flattens(self):
        e = And(And(TRUE, TRUE), TRUE)
        assert len(e.operands) == 3

    def test_or_flattens(self):
        e = Or(Or(FALSE, FALSE), TRUE)
        assert len(e.operands) == 3

    def test_and_evaluation(self):
        e = (col("a") > lit(0)) & (col("b") > lit(0))
        assert ev(e, (1, 1, 0))
        assert not ev(e, (1, -1, 0))

    def test_or_evaluation(self):
        e = (col("a") > lit(0)) | (col("b") > lit(0))
        assert ev(e, (-1, 1, 0))
        assert not ev(e, (-1, -1, 0))

    def test_not(self):
        assert ev(~(col("a") > lit(0)), (-1, 0, 0))

    def test_between(self):
        e = col("a").between(2, 4)
        assert ev(e, (3, 0, 0))
        assert ev(e, (2, 0, 0)) and ev(e, (4, 0, 0))  # inclusive
        assert not ev(e, (5, 0, 0))

    def test_in_list(self):
        e = col("a").in_list([1, 3])
        assert ev(e, (3, 0, 0))
        assert not ev(e, (2, 0, 0))

    def test_conjunction_empty_is_true(self):
        assert ev(conjunction([]), (0, 0, 0))

    def test_disjunction_empty_is_false(self):
        assert not ev(disjunction([]), (0, 0, 0))

    def test_conjunction_singleton_passthrough(self):
        e = col("a") > lit(0)
        assert conjunction([e]) is e

    def test_conjunction_leaves_true_out(self):
        e = col("a") > lit(0)
        copy = map_columns(TRUE, lambda column: column)  # a clone, as qualifying makes
        assert copy is not TRUE
        assert conjunction([TRUE, e, copy]) is e
        assert conjunction([TRUE, copy]) is TRUE
        assert repr(conjunction([e, TRUE, col("b").eq(lit(1))])) == "((a > 0) AND (b = 1))"
        # a comparison that only looks constant is kept
        null = Comparison("=", lit(None), lit(None))
        assert conjunction([null, e]).operands == (null, e)


class TestAnalysis:
    def test_columns(self):
        e = (col("a") > lit(1)) & (col("b").eq(col("c")))
        assert e.columns() == frozenset({"a", "b", "c"})

    def test_split_conjuncts(self):
        e = (col("a") > lit(1)) & (col("b") > lit(2)) & (col("c") > lit(3))
        assert len(split_conjuncts(e)) == 3

    def test_split_non_and_is_singleton(self):
        e = col("a") > lit(1)
        assert split_conjuncts(e) == [e]

    def test_flipped(self):
        e = Comparison("<", col("a"), col("b")).flipped()
        assert e.op == ">" and e.left.name == "b"

    def test_map_columns_rewrites_every_column_and_nothing_else(self):
        e = (
            (col("a") + col("b") > lit(1))
            & ~col("c").in_list([1, 2])
            & (col("a").between(col("b"), 9) | col("c").is_null())
        )
        before = repr(e)
        mapped = map_columns(e, lambda column: Col(column.name.upper()))
        assert repr(mapped) == before.replace("a", "A").replace("b", "B").replace("c", "C")
        assert repr(e) == before  # the input tree is shared, never edited
        upper = Schema(["A", "B", "C"])
        for row in [(1, 2, 3), (None, 2, 1), (5, 1, None)]:
            assert mapped.bind(upper)(row) == ev(e, row)


class TestEquijoinPairs:
    def test_simple_pair(self):
        left, right = Schema(["l.k", "l.v"]), Schema(["r.k", "r.v"])
        pred = col("l.k").eq(col("r.k"))
        pairs, residual = equijoin_pairs(pred, left, right)
        assert pairs == [("l.k", "r.k")]
        assert residual == []

    def test_pair_flipped_operands(self):
        left, right = Schema(["l.k"]), Schema(["r.k"])
        pred = col("r.k").eq(col("l.k"))
        pairs, _ = equijoin_pairs(pred, left, right)
        assert pairs == [("l.k", "r.k")]

    def test_residual_kept(self):
        left, right = Schema(["l.k", "l.v"]), Schema(["r.k", "r.v"])
        pred = col("l.k").eq(col("r.k")) & (col("l.v") < col("r.v"))
        pairs, residual = equijoin_pairs(pred, left, right)
        assert len(pairs) == 1 and len(residual) == 1

    def test_non_equi_all_residual(self):
        left, right = Schema(["l.k"]), Schema(["r.k"])
        pred = col("l.k") < col("r.k")
        pairs, residual = equijoin_pairs(pred, left, right)
        assert pairs == [] and len(residual) == 1

    def test_same_side_equality_is_residual(self):
        left, right = Schema(["l.a", "l.b"]), Schema(["r.a"])
        pred = col("l.a").eq(col("l.b"))
        pairs, residual = equijoin_pairs(pred, left, right)
        assert pairs == [] and len(residual) == 1


class TestRepr:
    def test_reprs_are_readable(self):
        e = (col("a").eq(lit("x"))) & (col("b") > lit(1))
        text = repr(e)
        assert "a" in text and "'x'" in text and "AND" in text


# ----------------------------------------------------------------------
# property tests: compiled expressions == bound closures
# ----------------------------------------------------------------------
values = st.integers(min_value=0, max_value=4)


@st.composite
def expressions(draw, depth=2):
    leafs = [col("a"), col("b"), col("c"), lit(draw(values)), lit("x"), lit(None)]
    if depth == 0:
        return draw(st.sampled_from(leafs))
    kind = draw(
        st.sampled_from(
            ["cmp", "and", "or", "not", "arith", "isnull", "inlist", "between"]
        )
    )
    sub = expressions(depth=depth - 1)
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return Comparison(op, draw(st.sampled_from(leafs[:4])), draw(st.sampled_from(leafs[:4])))
    if kind == "and":
        return draw(sub) & draw(sub)
    if kind == "or":
        return draw(sub) | draw(sub)
    if kind == "not":
        return ~draw(sub)
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*"]))
        return Arithmetic(op, draw(st.sampled_from(leafs[:4])), draw(st.sampled_from(leafs[:4])))
    if kind == "isnull":
        return col(draw(st.sampled_from(["a", "b", "c"]))).is_null()
    if kind == "inlist":
        return col(draw(st.sampled_from(["a", "b", "c"]))).in_list([0, 2, 4])
    return col(draw(st.sampled_from(["a", "b"]))).between(1, 3)


maybe_values = st.one_of(values, st.none())


@given(expressions(), st.lists(st.tuples(maybe_values, maybe_values, maybe_values), max_size=12))
@settings(max_examples=200, deadline=None)
def test_compiled_expression_equals_bound(expr, rows):
    schema = Schema(["a", "b", "c"])
    bound = expr.bind(schema)
    compiled = compile_expression(expr, schema)
    for row in rows:
        try:
            expected = bound(row)
        except TypeError:
            # mixed-type comparisons raise identically on both paths
            with pytest.raises(TypeError):
                compiled(row)
            continue
        assert compiled(row) == expected, f"{expr!r} on {row}"
