"""Logical plan optimizer.

Implements the classical rewrites the paper relies on PostgreSQL for:

1. **Conjunct splitting + selection pushdown** — σ over AND splits into
   cascaded selections, each pushed as far toward the leaves as its column
   references allow (through projections, renames, distinct, and into the
   matching side of joins/products).
2. **Product-to-join conversion** — a selection over a cartesian product
   whose conjuncts span both sides becomes a join predicate.
3. **Greedy selectivity-based join ordering** — :func:`greedy_order`, one
   loop with two callers.  :func:`order_joins` flattens cascades of
   relational joins/products into a join graph and re-assembles them, for
   plans written against a :class:`~repro.relational.database.Database`.
   A *translated* U-relation query it cannot reorder — each join and merge
   sits under its own ``Project``/``Rename`` of positional descriptor
   columns, where flattening stops — so :mod:`repro.core.translate` runs
   the same loop over partition scans before that nesting exists: the
   "standard selectivity-based cost measure" behaviour Section 3 of the
   paper reports works well for translated queries.  Both rank candidates
   with :func:`join_rows`, arithmetic on row estimates and per-column
   distinct counts; no trial plan is built.
4. **Column pruning** — projections are inserted above join inputs so that
   only columns needed upstream flow through the pipeline (the paper's
   plan P3 of Figure 3 projects away value attributes early).

The entry point is :func:`optimize`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar
from weakref import WeakKeyDictionary

from .algebra import (
    Difference,
    Distinct,
    Extend,
    Join,
    Plan,
    Product,
    Project,
    ProjectAs,
    Rename,
    Scan,
    Select,
    Union,
)
from .expressions import (
    Col,
    Expression,
    Or,
    columns_of,
    conjunction,
    equijoin_pairs,
    is_true,
    map_columns,
    split_conjuncts,
)
from .statistics import (
    DEFAULT_SELECTIVITY,
    ColumnStats,
    TableStats,
    join_cardinality,
    selectivity,
    table_stats,
)

__all__ = [
    "optimize",
    "push_selections",
    "order_joins",
    "prune_columns",
    "greedy_order",
    "estimate_rows",
    "join_rows",
    "column_stats",
    "scan_stats",
    "refresh_statistics",
]

T = TypeVar("T")


def optimize(plan: Plan) -> Plan:
    """Full rewrite pipeline: pushdown, join ordering, column pruning."""
    original_names = plan.schema.names
    plan = push_selections(plan)
    plan = order_joins(plan)
    plan = push_selections(plan)  # join reordering can expose new pushdowns
    plan = prune_columns(plan, set(original_names))
    if plan.schema.names != original_names:
        plan = Project(plan, original_names)
    return plan


# ======================================================================
# selection pushdown
# ======================================================================
def push_selections(plan: Plan) -> Plan:
    """Split conjunctions and push selections toward the leaves."""
    plan = plan.with_children([push_selections(c) for c in plan.children])
    if isinstance(plan, Select):
        conjuncts = split_conjuncts(plan.predicate)
        return _push_conjuncts(plan.child, conjuncts)
    return plan


def _push_conjuncts(child: Plan, conjuncts: Sequence[Expression]) -> Plan:
    """Push each conjunct into ``child`` where possible; wrap the rest."""
    remaining: List[Expression] = []
    for conjunct in conjuncts:
        pushed = _push_one(child, conjunct)
        if pushed is None:
            remaining.append(conjunct)
        else:
            child = pushed
    if remaining:
        return Select(child, conjunction(remaining))
    return child


def _push_one(plan: Plan, conjunct: Expression) -> Optional[Plan]:
    """Try to push one conjunct below ``plan``; return new plan or None."""
    refs = columns_of(conjunct)

    if isinstance(plan, Select):
        inner = _push_one(plan.child, conjunct)
        if inner is not None:
            return Select(inner, plan.predicate)
        return Select(plan.child, conjunction([plan.predicate, conjunct]))

    if isinstance(plan, Project):
        if all(plan.child.schema.has(r) for r in refs):
            return Project(_push_into(plan.child, conjunct), plan.columns)
        return None

    if isinstance(plan, ProjectAs):
        mapping = {new: ref for ref, new in plan.items}
        if all(r in mapping for r in refs):
            translated = map_columns(
                conjunct, lambda column: Col(mapping.get(column.name, column.name))
            )
            return ProjectAs(_push_into(plan.child, translated), plan.items)
        return None

    if isinstance(plan, Distinct):
        return Distinct(_push_into(plan.child, conjunct))

    if isinstance(plan, Rename):
        inverse = {new: old for old, new in plan.mapping.items()}
        if any(r in inverse or _base_in(inverse, r) for r in refs):
            # renamed columns appear in the predicate: keep it above the rename
            return None
        if all(plan.child.schema.has(r) for r in refs):
            return Rename(_push_into(plan.child, conjunct), plan.mapping)
        return None

    if isinstance(plan, (Join, Product)):
        left, right = plan.children
        left_covers = all(left.schema.has(r) for r in refs)
        right_covers = all(right.schema.has(r) for r in refs)
        if left_covers and not right_covers:
            return plan.with_children([_push_into(left, conjunct), right])
        if right_covers and not left_covers:
            return plan.with_children([left, _push_into(right, conjunct)])
        if left_covers and right_covers:
            # ambiguous (same base name on both sides) — keep above
            return None
        # spans both sides: merge into the join predicate
        if isinstance(plan, Join):
            return Join(left, right, conjunction([plan.predicate, conjunct]))
        return Join(left, right, conjunct)

    if isinstance(plan, Union):
        left, right = plan.children
        if all(plan.schema.has(r) for r in refs):
            # union uses the left schema's names; translate positionally
            try:
                right_conjunct = _translate_positionally(conjunct, plan, right)
            except Exception:
                return None
            return Union(_push_into(left, conjunct), _push_into(right, right_conjunct))
        return None

    return None


def _push_into(plan: Plan, conjunct: Expression) -> Plan:
    """Push a conjunct into a plan, wrapping with Select if it won't go lower."""
    pushed = _push_one(plan, conjunct)
    if pushed is not None:
        return pushed
    return Select(plan, conjunct)


def _base_in(mapping: Dict[str, str], reference: str) -> bool:
    base = reference.split(".", 1)[-1]
    return any(key.split(".", 1)[-1] == base for key in mapping)


def _translate_positionally(conjunct: Expression, union_plan: Plan, right: Plan) -> Expression:
    """Rewrite column refs of a conjunct from the union's (left) names to the
    right child's names by position."""
    left_names = union_plan.schema.names
    right_names = right.schema.names
    position = {name: i for i, name in enumerate(left_names)}

    def on_the_right(column: Col) -> Col:
        idx = position.get(column.name)
        if idx is None:
            idx = position[left_names[union_plan.schema.resolve(column.name)]]
        return Col(right_names[idx])

    return map_columns(conjunct, on_the_right)


# ======================================================================
# cardinality estimation
# ======================================================================
def scan_stats(scan: Scan) -> TableStats:
    """Per-table statistics for a base-relation scan, kept on the relation.

    Public so the planner's access-path selection shares the optimizer's
    statistics when costing candidate index scans.
    """
    return table_stats(scan.relation)


def refresh_statistics(relation) -> None:
    """Drop a relation's statistics (the ``ANALYZE`` analogue).

    A statistics refresh is a catalog mutation for plan-caching purposes:
    cached plans were costed against the old estimates, so the relation's
    plan-cache epoch is bumped — dependent prepared plans are evicted and
    watching catalogs bump their version — and the next planning pass
    recomputes :class:`TableStats` lazily.
    """
    from .plancache import bump_relation

    relation._stats = None
    bump_relation(relation)


def column_stats(plan: Plan, reference: str) -> Optional[ColumnStats]:
    """Find stats for a column by descending to the base scan that carries it."""
    if isinstance(plan, Scan):
        if plan.schema.has(reference):
            idx = plan.schema.resolve(reference)
            return scan_stats(plan).column(plan.relation.schema.names[idx])
        return None
    if isinstance(plan, Rename):
        inverse = {new: old for old, new in plan.mapping.items()}
        mapped = inverse.get(reference, reference)
        return column_stats(plan.child, mapped)
    for child in plan.children:
        if child.schema.has(reference):
            return column_stats(child, reference)
    return None


#: Memo for :func:`estimate_rows`.  Logical plans are immutable trees, so
#: an estimate never changes once computed; without the memo the planner's
#: per-node estimation is quadratic in plan size.  Weak keys let discarded
#: rewrite candidates (join-order trials) drop out.
_estimate_cache: "WeakKeyDictionary[Plan, float]" = WeakKeyDictionary()


def estimate_rows(plan: Plan) -> float:
    """Estimated output cardinality of a logical plan (memoized)."""
    value = _estimate_cache.get(plan)
    if value is None:
        value = _estimate_rows(plan)
        _estimate_cache[plan] = value
    return value


def _estimate_rows(plan: Plan) -> float:
    if isinstance(plan, Scan):
        return float(len(plan.relation))
    if isinstance(plan, Select):
        stats = _PlanStats(plan.child)
        return max(estimate_rows(plan.child) * selectivity(plan.predicate, stats), 0.1)
    if isinstance(plan, (Project, ProjectAs, Rename, Extend)):
        return estimate_rows(plan.children[0])
    if isinstance(plan, Distinct):
        (child,) = plan.children
        rows = estimate_rows(child) * 0.9
        # no more groups than combinations of the columns' distinct values
        groups = 1.0
        for name in child.schema.names:
            if groups >= rows:
                break
            groups *= max(_distinct_bound(child, name), 1.0)
        return max(min(rows, groups), 0.1)
    if isinstance(plan, Join):
        return _estimate_join(plan.left, plan.right, plan.predicate)
    if isinstance(plan, Product):
        left, right = plan.children
        return estimate_rows(left) * estimate_rows(right)
    if isinstance(plan, Union):
        left, right = plan.children
        return estimate_rows(left) + estimate_rows(right)
    if isinstance(plan, Difference):
        return estimate_rows(plan.children[0])
    from .algebra import ConfCompute as _ConfCompute
    from .algebra import SemiJoin as _SemiJoin

    if isinstance(plan, _SemiJoin):
        return max(estimate_rows(plan.children[0]) * 0.5, 0.1)
    if isinstance(plan, _ConfCompute):
        # one output row per distinct value tuple of the input U-relation
        return max(estimate_rows(plan.children[0]) * 0.5, 1.0)
    return 1000.0


def _distinct_bound(plan: Plan, reference: str) -> float:
    """An upper estimate of a column's distinct values in a plan's output:
    the smallest estimate among the nodes the column came up through (a
    selection ``name = 'X'`` that leaves one row leaves one name, however
    many rows later joins multiply it into)."""
    rows = estimate_rows(plan)
    if isinstance(plan, Rename):
        inverse = {new: old for old, new in plan.mapping.items()}
        reference = inverse.get(reference, reference)
    for child in plan.children:
        if child.schema.has(reference):
            return min(rows, _distinct_bound(child, reference))
    return rows


#: What the ψ condition of a translated join keeps, all its conjuncts taken
#: together: descriptors of different fields rarely share a variable, so ψ
#: is one factor near 1 however many (c_i, w_i) pairs it compares.
PSI_SELECTIVITY = 0.95


def _estimate_join(left: Plan, right: Plan, predicate: Expression) -> float:
    """Estimated rows of ``Join(left, right, predicate)``, without building it."""
    pairs, residual = equijoin_pairs(predicate, left.schema, right.schema)
    return join_rows(
        estimate_rows(left),
        estimate_rows(right),
        [(column_stats(left, l), column_stats(right, r)) for l, r in pairs],
        sum(1 for res in residual if not (_is_psi_shaped(res) or is_true(res))),
        any(_is_psi_shaped(res) for res in residual),
    )


def join_rows(
    left_rows: float,
    right_rows: float,
    pairs: Sequence[Tuple[Optional[ColumnStats], Optional[ColumnStats]]],
    residuals: int,
    psi: bool,
) -> float:
    """Estimated output rows of a join, from numbers alone.

    ``pairs`` holds the column statistics of each equi-conjunct's two
    sides (the most selective pair decides; none: a product),
    ``residuals`` counts the other conjuncts, each charged
    :data:`DEFAULT_SELECTIVITY`, and ``psi`` says whether a ψ condition
    rides along: :data:`PSI_SELECTIVITY` once, however many conjuncts it
    has.  A literal ``TRUE`` is not a conjunct.  Behind both
    :func:`estimate_rows` of a ``Join`` and :func:`greedy_order`'s ranks.
    """
    rows = left_rows * right_rows
    for left_stats, right_stats in pairs:
        rows = min(rows, join_cardinality(left_rows, right_rows, left_stats, right_stats))
    rows *= DEFAULT_SELECTIVITY**residuals
    if psi:
        rows *= PSI_SELECTIVITY
    return max(rows, 0.1)


def _is_psi_shaped(expression: Expression) -> bool:
    """Heuristic: ψ-conditions (Var mismatch OR Rng equal) are barely selective."""
    return isinstance(expression, Or)


class _PlanStats:
    """A :class:`TableStats`-compatible view resolving refs through a plan.

    ``Select`` predicates routinely reference alias-qualified names
    ("o.orderdate") introduced by renames above the base scan; the base
    relation's :class:`TableStats` only knows base names, so a direct
    lookup missed and selectivity fell back to defaults.  Resolving by
    *position* through the rename chain (what :func:`column_stats` does)
    recovers the real column statistics, keeping Select estimates sharp
    under aliases — which is what orders joins well.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: Plan):
        self.plan = plan

    def column(self, reference: str) -> Optional[ColumnStats]:
        return column_stats(self.plan, reference)


# ======================================================================
# join ordering
# ======================================================================
def order_joins(plan: Plan) -> Plan:
    """Flatten join cascades and re-assemble them greedily by cardinality."""
    plan = plan.with_children([order_joins(c) for c in plan.children])
    if not isinstance(plan, (Join, Product)):
        return plan

    leaves, unused = _flatten_joins(plan)
    if len(leaves) <= 2:
        return plan

    def applicable(current: Plan, candidate: Plan) -> List[Expression]:
        combined = set(current.schema.names) | set(candidate.schema.names)
        return [
            p for p in unused if all(_resolvable(combined, r) for r in columns_of(p))
        ]

    def rank(current: Plan, candidate: Plan) -> Tuple[bool, float]:
        preds = applicable(current, candidate)
        return not preds, _estimate_join(current, candidate, conjunction(preds))

    def join(current: Plan, candidate: Plan) -> Plan:
        preds = applicable(current, candidate)
        if not preds:
            return Product(current, candidate)
        for p in preds:
            unused.remove(p)
        return Join(current, candidate, conjunction(preds))

    ordered = greedy_order(leaves, estimate_rows, rank, join)
    if unused:
        ordered = Select(ordered, conjunction(unused))
    return ordered


def _flatten_joins(plan: Plan) -> Tuple[List[Plan], List[Expression]]:
    """Collect the leaf inputs and all join conjuncts of a join/product tree.

    A loop, not a recursive inner function: a closure that calls itself is
    a reference cycle, and this one would hold ``leaves`` - hence every
    scanned relation version - until the cycle collector's next full pass.
    """
    leaves: List[Plan] = []
    predicates: List[Expression] = []
    stack = [plan]
    while stack:  # pre-order, left before right
        node = stack.pop()
        if isinstance(node, (Join, Product)):
            if isinstance(node, Join):
                predicates.extend(split_conjuncts(node.predicate))
            stack.append(node.right)
            stack.append(node.left)
        else:
            leaves.append(node)
    return leaves, predicates


def greedy_order(
    inputs: Sequence[T],
    size: Callable[[T], Any],
    rank: Callable[[T, T], Any],
    join: Callable[[T, T], T],
) -> T:
    """Left-deep greedy join ordering, for whatever the caller joins.

    Seeds with the input of the smallest ``size``, then always joins in
    the candidate whose ``rank(current, candidate)`` sorts first; callers
    return ``(disconnected, estimated_rows, ...)``, so a connected
    candidate goes before a cross product and the smallest estimated
    result (:func:`join_rows`) first.  Ties keep the order of ``inputs``.
    ``join`` builds the chosen step and returns the new ``current``.
    """
    remaining = sorted(inputs, key=size)
    current = remaining.pop(0)
    while remaining:
        best = min(range(len(remaining)), key=lambda i: rank(current, remaining[i]))
        current = join(current, remaining.pop(best))
    return current


def _resolvable(names: Set[str], reference: str) -> bool:
    if reference in names:
        return True
    base = reference.split(".", 1)[-1]
    matches = [n for n in names if n.split(".", 1)[-1] == base]
    return len(matches) == 1 and "." not in reference


# ======================================================================
# column pruning
# ======================================================================
def prune_columns(plan: Plan, required: Set[str]) -> Plan:
    """Insert projections so only upstream-needed columns flow through."""
    if isinstance(plan, Project):
        child_required = set()
        for c in plan.columns:
            child_required.add(plan.child.schema.names[plan.child.schema.resolve(c)])
        return Project(prune_columns(plan.child, child_required), plan.columns)

    if isinstance(plan, ProjectAs):
        child_required = set()
        for ref, _new in plan.items:
            child_required.add(plan.child.schema.names[plan.child.schema.resolve(ref)])
        return ProjectAs(prune_columns(plan.child, child_required), plan.items)

    if isinstance(plan, Select):
        child_required = set(required)
        for r in columns_of(plan.predicate):
            child_required.add(plan.child.schema.names[plan.child.schema.resolve(r)])
        return Select(prune_columns(plan.child, child_required), plan.predicate)

    if isinstance(plan, (Join, Product)):
        left, right = plan.children
        needed = set(required)
        if isinstance(plan, Join):
            for r in columns_of(plan.predicate):
                needed.add(plan.schema.names[plan.schema.resolve(r)])
        left_req = {n for n in needed if n in set(left.schema.names)}
        right_req = {n for n in needed if n in set(right.schema.names)}
        new_left = _maybe_project(prune_columns(left, left_req), left_req)
        new_right = _maybe_project(prune_columns(right, right_req), right_req)
        return plan.with_children([new_left, new_right])

    if isinstance(plan, (Distinct, Union, Difference)):
        # these need all columns positionally / semantically
        return plan.with_children(
            [prune_columns(c, set(c.schema.names)) for c in plan.children]
        )

    if isinstance(plan, Rename):
        inverse = {new: old for old, new in plan.mapping.items()}
        child_required = set()
        for name in required:
            old = inverse.get(name, name)
            if plan.child.schema.has(old):
                child_required.add(plan.child.schema.names[plan.child.schema.resolve(old)])
        child_required |= {
            plan.child.schema.names[plan.child.schema.resolve(o)] for o in plan.mapping
        }
        return Rename(prune_columns(plan.child, child_required), plan.mapping)

    return plan


def _maybe_project(plan: Plan, required: Set[str]) -> Plan:
    names = plan.schema.names
    keep = [n for n in names if n in required]
    if not keep:
        keep = names[:1]  # must keep at least one column
    if len(keep) == len(names):
        return plan
    if isinstance(plan, Project):
        return Project(plan.child, [plan.columns[names.index(k)] for k in keep])
    if _over_base_scan(plan):
        # the join gathers only the columns its output names; a Project
        # here would hide the scan from index selection
        return plan
    return Project(plan, keep)


def _over_base_scan(plan: Plan) -> bool:
    """Whether ``plan`` is a chain of Renames and Selects over a Scan."""
    while isinstance(plan, (Rename, Select)):
        plan = plan.child
    return isinstance(plan, Scan)
