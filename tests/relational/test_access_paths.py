"""Property tests: indexed plans ≡ sequential plans.

The access-path layer must be purely a physical choice: for any query,
any batch size, and either protocol (executor or ``rows`` reference), a plan compiled with indexes
available returns exactly the same bag of rows as the same plan compiled
with ``use_indexes=False`` (all-sequential scans + hash joins).

Randomized over predicates (equality / range / BETWEEN / IN / NULL
tests), join shapes, both protocols, and batch sizes around the
batch boundary including 0 and 1.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import Join, Project, Scan, Select
from repro.relational.expressions import col, lit
from repro.relational.index import ensure_index
from repro.relational.optimizer import optimize
from repro.relational.physical import execute
from repro.relational.planner import plan_physical
from repro.relational.relation import Relation

values = st.one_of(st.integers(min_value=0, max_value=9), st.none())
rows_r = st.lists(st.tuples(values, values), min_size=0, max_size=30)
rows_s = st.lists(st.tuples(values, values), min_size=0, max_size=30)
batch_sizes = st.sampled_from([0, 1, 2, 7, 1023, 1024, 1025])
modes = st.sampled_from(["rows", "columns"])


@st.composite
def predicates(draw, columns):
    column = col(draw(st.sampled_from(columns)))
    kind = draw(st.sampled_from(["eq", "lt", "gt", "between", "in", "isnull", "and"]))
    v = draw(st.integers(min_value=0, max_value=9))
    if kind == "eq":
        return column.eq(lit(v))
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
    """A Select/Join/Project plan over two indexed base relations."""
    r = Relation(["r.a", "r.b"], draw(rows_r))
    s = Relation(["s.c", "s.d"], draw(rows_s))
    # every column gets an index; sortable because values are int-or-None
    for rel, names in ((r, ["r.a", "r.b"]), (s, ["s.c", "s.d"])):
        for name in names:
            ensure_index(rel, [name], kind="hash")
            ensure_index(rel, [name], kind="sorted")
    r_scan, s_scan = Scan(r, "r"), Scan(s, "s")
    shape = draw(st.sampled_from(["select", "join", "join_select", "project"]))
    if shape == "select":
        return Select(r_scan, draw(predicates(["r.a", "r.b"])))
    join = Join(
        Select(r_scan, draw(predicates(["r.a", "r.b"]))),
        s_scan,
        col("r.a").eq(col("s.c")),
    )
    if shape == "join":
        return join
    if shape == "join_select":
        return Select(join, draw(predicates(["r.b", "s.d"])))
    return Project(join, ["r.b", "s.d"])


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@given(plans(), batch_sizes, modes, st.booleans())
@settings(max_examples=150, deadline=None)
def test_indexed_plans_equal_sequential_plans(plan, batch_size, mode, optimize_first):
    logical = optimize(plan) if optimize_first else plan
    with_indexes = execute(
        plan_physical(logical, use_indexes=True), mode=mode, batch_size=batch_size
    )
    without_indexes = execute(
        plan_physical(logical, use_indexes=False), mode=mode, batch_size=batch_size
    )
    assert bag(with_indexes) == bag(without_indexes)
    assert with_indexes.schema.names == without_indexes.schema.names


@given(plans(), batch_sizes)
@settings(max_examples=60, deadline=None)
def test_indexed_executor_equals_indexed_rows(plan, batch_size):
    physical = plan_physical(optimize(plan), use_indexes=True)
    served = execute(physical, mode="columns", batch_size=batch_size)
    via_rows = execute(physical, mode="rows")
    assert bag(served) == bag(via_rows)
