"""Tests for the optimizer: rewrites preserve results; shapes improve."""

import pytest

from repro.relational.algebra import (
    Distinct,
    Join,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.relational.expressions import TRUE, And, col, lit
from repro.relational.optimizer import (
    estimate_rows,
    optimize,
    order_joins,
    prune_columns,
    push_selections,
)
from repro.relational.planner import plan_physical
from repro.relational.physical import execute
from repro.relational.relation import Relation


def run_plan(plan: Plan) -> Relation:
    return execute(plan_physical(plan))


@pytest.fixture
def db():
    r = Relation(["r.k", "r.v"], [(i, i % 5) for i in range(50)])
    s = Relation(["s.k", "s.w"], [(i, i % 3) for i in range(40)])
    t = Relation(["t.w", "t.z"], [(i % 3, i) for i in range(30)])
    return (
        Scan(r, "r"),
        Scan(s, "s"),
        Scan(t, "t"),
    )


def assert_equivalent(plan: Plan) -> Plan:
    """optimize(plan) must produce the same bag of rows as plan."""
    baseline = run_plan(plan)
    optimized = optimize(plan)
    result = run_plan(optimized)
    assert sorted(map(repr, result.rows)) == sorted(map(repr, baseline.rows))
    assert result.schema.names == baseline.schema.names
    return optimized


class TestPushdown:
    def test_selection_pushed_below_project(self, db):
        r, _, _ = db
        plan = Select(Project(r, ["r.v"]), col("r.v") > lit(2))
        optimized = assert_equivalent(plan)
        assert isinstance(optimized, Project)

    def test_selection_pushed_into_join_side(self, db):
        r, s, _ = db
        plan = Select(
            Join(r, s, col("r.k").eq(col("s.k"))), col("r.v").eq(lit(0))
        )
        optimized = assert_equivalent(plan)
        # after pushdown + pruning the filter must sit below the join
        def join_has_filter_child(node: Plan) -> bool:
            if isinstance(node, Join):
                return any(_contains_select(c) for c in node.children)
            return any(join_has_filter_child(c) for c in node.children)

        assert join_has_filter_child(optimized)

    def test_product_with_spanning_predicate_becomes_join(self, db):
        r, s, _ = db
        plan = Select(Product(r, s), col("r.k").eq(col("s.k")))
        optimized = assert_equivalent(plan)
        assert _contains_join(optimized)
        assert not _contains_product(optimized)

    def test_conjunction_split(self, db):
        r, s, _ = db
        plan = Select(
            Product(r, s),
            col("r.k").eq(col("s.k")) & (col("r.v") > lit(1)) & (col("s.w") > lit(0)),
        )
        assert_equivalent(plan)

    def test_pushdown_through_distinct(self, db):
        r, _, _ = db
        plan = Select(Distinct(Project(r, ["r.v"])), col("r.v") > lit(2))
        optimized = assert_equivalent(plan)
        assert isinstance(optimized, Distinct)

    def test_pushdown_through_union(self, db):
        r, _, _ = db
        plan = Select(
            Union(Project(r, ["r.v"]), Project(r, ["r.k"])), col("r.v") > lit(2)
        )
        assert_equivalent(plan)


class TestJoinOrdering:
    def test_three_way_join_reordered_and_correct(self, db):
        r, s, t = db
        plan = Join(
            Join(r, s, col("r.k").eq(col("s.k"))),
            t,
            col("s.w").eq(col("t.w")),
        )
        assert_equivalent(plan)

    def test_selective_filter_drives_order(self, db):
        r, s, t = db
        plan = Select(
            Join(
                Join(r, s, col("r.k").eq(col("s.k"))),
                t,
                col("s.w").eq(col("t.w")),
            ),
            col("r.k").eq(lit(7)),
        )
        optimized = assert_equivalent(plan)
        assert estimate_rows(optimized) <= estimate_rows(plan)

    def test_cross_product_only_when_forced(self, db):
        r, s, _ = db
        plan = Product(r, s)
        optimized = optimize(plan)
        # nothing to join on: stays a product but still correct
        assert len(run_plan(optimized)) == 50 * 40


class TestColumnPruning:
    def test_pruning_narrows_join_inputs(self, db):
        r, s, _ = db
        plan = Project(
            Join(r, s, col("r.k").eq(col("s.k"))), ["r.v"]
        )
        optimized = assert_equivalent(plan)
        # the s side should not carry s.w upward
        assert _narrowest_schema_width(optimized) <= 2

    def test_final_schema_restored(self, db):
        r, s, _ = db
        plan = Join(r, s, col("r.k").eq(col("s.k")))
        optimized = optimize(plan)
        assert optimized.schema.names == plan.schema.names


class TestEstimates:
    def test_scan_estimate_is_row_count(self, db):
        r, _, _ = db
        assert estimate_rows(r) == 50

    def test_selection_reduces_estimate(self, db):
        r, _, _ = db
        sel = Select(r, col("r.v").eq(lit(0)))
        assert estimate_rows(sel) < estimate_rows(r)

    def test_equality_uses_distinct_count(self, db):
        r, _, _ = db
        sel = Select(r, col("r.v").eq(lit(0)))  # r.v has 5 distinct values
        assert estimate_rows(sel) == pytest.approx(10, rel=0.2)

    def test_join_estimate_reasonable(self, db):
        r, s, _ = db
        join = Join(r, s, col("r.k").eq(col("s.k")))
        est = estimate_rows(join)
        actual = len(run_plan(join))
        assert actual / 5 <= est <= actual * 5

    def test_true_conjunct_costs_nothing(self, db):
        r, s, _ = db
        key = col("r.k").eq(col("s.k"))
        assert estimate_rows(Join(r, s, And(key, TRUE))) == estimate_rows(Join(r, s, key))
        assert estimate_rows(Join(r, s, TRUE)) == estimate_rows(Product(r, s))

    def test_psi_is_one_factor_however_many_conjuncts(self, db):
        r, s, _ = db
        key = col("r.k").eq(col("s.k"))
        psi = col("r.v").ne(col("s.w")) | col("r.k").eq(col("s.w"))
        one = estimate_rows(Join(r, s, And(key, psi)))
        twenty = estimate_rows(Join(r, s, And(key, *[psi] * 20)))
        assert one == twenty == pytest.approx(0.95 * estimate_rows(Join(r, s, key)))

    def test_distinct_is_bounded_by_its_columns_distinct_values(self, db):
        r, s, _ = db
        one_key = Select(r, col("r.k").eq(lit(7)))  # one row, so one r.v
        fanned_out = Join(one_key, s, col("r.v").eq(col("s.w")))
        assert estimate_rows(fanned_out) > 5
        assert estimate_rows(Distinct(Project(fanned_out, ["r.v"]))) == pytest.approx(1.0)
        assert estimate_rows(Distinct(Project(r, ["r.v"]))) == pytest.approx(45)


def _contains_select(node: Plan) -> bool:
    if isinstance(node, Select):
        return True
    return any(_contains_select(c) for c in node.children)


def _contains_join(node: Plan) -> bool:
    if isinstance(node, Join):
        return True
    return any(_contains_join(c) for c in node.children)


def _contains_product(node: Plan) -> bool:
    if isinstance(node, Product):
        return True
    return any(_contains_product(c) for c in node.children)


def _narrowest_schema_width(node: Plan) -> int:
    widths = [len(node.schema)]
    for child in node.children:
        widths.append(_narrowest_schema_width(child))
    return min(widths)


class TestAliasQualifiedStatistics:
    """Select estimates resolve alias-qualified refs by position (PR 3)."""

    def test_aliased_estimate_matches_unaliased(self):
        from repro.relational.algebra import Rename

        rel = Relation(["d"], [(i,) for i in range(100)])
        plain = Select(Scan(rel, "t"), col("d") > lit(89))
        aliased = Select(
            Rename(Scan(rel, "t"), {"d": "o.d"}), col("o.d") > lit(89)
        )
        assert estimate_rows(aliased) == pytest.approx(estimate_rows(plain))
        # the histogram estimate (~10) applies, not the 33-row default
        assert estimate_rows(aliased) < 15

    def test_aliased_equality_uses_distinct_count(self):
        from repro.relational.algebra import Rename

        rel = Relation(["v"], [(i % 5,) for i in range(50)])
        aliased = Select(
            Rename(Scan(rel, "t"), {"v": "o.v"}), col("o.v").eq(lit(0))
        )
        assert estimate_rows(aliased) == pytest.approx(10, rel=0.2)
