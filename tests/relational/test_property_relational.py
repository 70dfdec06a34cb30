"""Property-based tests: the optimizer and planner preserve query results.

Strategy: generate small random relations and random plan trees
(select/project/join over two tables), then check that

    execute(plan_physical(optimize(plan))) == execute(plan_physical(plan))

as bags, for every generated case.  This is the engine-level invariant all
of U-relations query processing rests on.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import Distinct, Join, Plan, Product, Project, Select
from repro.relational.expressions import Expression, col, lit
from repro.relational.optimizer import optimize
from repro.relational.planner import plan_physical
from repro.relational.physical import execute
from repro.relational.relation import Relation
from repro.relational.algebra import Scan

# 1.0 and 2.0 beside the ints: a join key must match the int it equals
values = st.one_of(st.integers(min_value=0, max_value=4), st.sampled_from([1.0, 2.0]))
rows_r = st.lists(st.tuples(values, values), min_size=0, max_size=8)
rows_s = st.lists(st.tuples(values, values), min_size=0, max_size=8)


def make_scans(r_rows, s_rows):
    r = Scan(Relation(["r.a", "r.b"], r_rows), "r")
    s = Scan(Relation(["s.c", "s.d"], s_rows), "s")
    return r, s


@st.composite
def predicates(draw, columns):
    column = draw(st.sampled_from(columns))
    op = draw(st.sampled_from(["eq", "lt", "gt"]))
    value = draw(values)
    c = col(column)
    if op == "eq":
        return c.eq(lit(value))
    if op == "lt":
        return c < lit(value)
    return c > lit(value)


@st.composite
def plans(draw):
    r_rows = draw(rows_r)
    s_rows = draw(rows_s)
    r, s = make_scans(r_rows, s_rows)
    shape = draw(st.sampled_from(["select", "join", "join_select", "project_join", "distinct"]))
    if shape == "select":
        pred = draw(predicates(["r.a", "r.b"]))
        extra = draw(predicates(["r.a", "r.b"]))
        return Select(Select(r, pred), extra)
    if shape == "join":
        return Join(r, s, col("r.a").eq(col("s.c")))
    if shape == "join_select":
        pred = draw(predicates(["r.a", "r.b", "s.c", "s.d"]))
        return Select(Join(r, s, col("r.a").eq(col("s.c"))), pred)
    if shape == "project_join":
        return Project(Join(r, s, col("r.b").eq(col("s.d"))), ["r.a", "s.c"])
    pred = draw(predicates(["r.a"]))
    return Distinct(Project(Select(r, pred), ["r.b"]))


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@given(plans())
@settings(max_examples=150, deadline=None)
def test_optimizer_preserves_results(plan: Plan):
    baseline = execute(plan_physical(plan))
    optimized = execute(plan_physical(optimize(plan)))
    assert bag(optimized) == bag(baseline)
    assert optimized.schema.names == baseline.schema.names


@given(rows_r, rows_s)
@settings(max_examples=60, deadline=None)
def test_join_equals_filtered_product(r_rows, s_rows):
    """Join(p) must equal Select(p, Product) — the algebraic definition."""
    r, s = make_scans(r_rows, s_rows)
    join = Join(r, s, col("r.a").eq(col("s.c")))
    product = Select(Product(r, s), col("r.a").eq(col("s.c")))
    assert bag(execute(plan_physical(join))) == bag(execute(plan_physical(product)))
