"""Logical-to-physical plan compilation with access-path selection.

The planner walks an (ideally optimized) logical plan and selects physical
algorithms:

* ``Select`` directly over a base scan (through any renames) -> an
  :class:`IndexScan` when an attached index covers the predicate's
  equality/range conjuncts *and* the cost model expects few matches;
  otherwise ``Filter`` over ``SeqScan``,
* ``Join`` with equi-pairs -> an :class:`IndexNestedLoopJoin` when one
  side is a bare (possibly renamed) base scan with an index on its join
  columns and the cost gate passes; else a :class:`HashJoin` that hashes
  the smaller input,
* ``Join`` without equi-pairs and ``Product`` -> :class:`NestedLoopJoin`,
* everything else maps one-to-one.

Access paths are discovered through :func:`repro.relational.index.indexes_on`
— indexes attach to the relation objects themselves, so any ``Scan`` of a
relation (the U-relations translation's partition scans, or a hand-built
plan run through :func:`run`) sees them.  Renames never reorder columns, so
a column position in the renamed schema equals its position in the base
relation, which is what lets the planner match predicate columns against
index columns through arbitrary rename chains.

Cardinality estimates from the optimizer are attached to the physical nodes
so EXPLAIN can print them (cosmetically matching the paper's plan figure).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .algebra import (
    ConfCompute,
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
    SemiJoin,
    Union,
)
from .expressions import (
    Between,
    Col,
    Comparison,
    Expression,
    Lit,
    Param,
    conjunction,
    equijoin_pairs,
    map_columns,
    split_conjuncts,
)
from .index import SortedIndex, indexes_on
from .optimizer import estimate_rows, scan_stats
from .physical import (
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
)
from .relation import Relation
from .schema import SchemaError
from .statistics import (
    EQUALITY_DEFAULT,
    RANGE_DEFAULT,
    use_index_join,
    use_index_scan,
)

__all__ = ["Planner", "plan_physical", "run"]


def _base_scan(plan: Plan) -> Optional[Scan]:
    """The base Scan under a chain of Renames, or None.

    Renames change names only (positions and rows are untouched), so an
    index over the base relation serves any renamed view of it.
    """
    while isinstance(plan, Rename):
        plan = plan.child
    return plan if isinstance(plan, Scan) else None


def _base_scan_with_filters(
    plan: Plan,
) -> Tuple[Optional[Scan], List[Tuple[Expression, Any]]]:
    """The base Scan under Rename/Select chains, plus the peeled filters.

    Each filter is returned with the schema it binds against; since neither
    renames nor selections move columns, a predicate compiled at any level
    of the chain evaluates correctly against the base relation's rows.
    Used by index-join selection: a filtered partition scan becomes index
    probes with the filter applied to the few matched rows.
    """
    filters: List[Tuple[Expression, Any]] = []
    while True:
        if isinstance(plan, Rename):
            plan = plan.child
        elif isinstance(plan, Select):
            filters.append((plan.predicate, plan.child.schema))
            plan = plan.child
        else:
            break
    if not isinstance(plan, Scan):
        return None, []
    return plan, filters


def _resolve(schema, reference: str) -> Optional[int]:
    try:
        return schema.resolve(reference)
    except SchemaError:
        return None


class Planner:
    """Compiles logical plans to physical plans.

    With ``fuse=True`` a post-pass collapses each maximal
    scan→filter→project chain (through renames) into a single
    :class:`~repro.relational.physical.FusedPipeline` and folds projections
    that sit directly above joins into the joins' emit
    (:meth:`~repro.relational.physical.HashJoin.set_output`) — the
    standalone ``Project`` reorders that bracket the partition merges of
    translated U-relation plans disappear into the join loops.  The
    executor (``mode="columns"``) runs fused plans; the ``rows()``
    reference runs the unfused tree.  ``use_indexes=False`` turns off
    access-path selection: every scan is sequential and every equi-join
    hashed.
    """

    def __init__(self, use_indexes: bool = True, fuse: bool = False):
        self.use_indexes = use_indexes
        self.fuse = fuse

    def compile(self, plan: Plan) -> PhysicalPlan:
        """Compile a logical plan tree into a physical operator tree."""
        physical = self._compile(plan)
        if self.fuse:
            physical = _fuse_tree(physical)
        return physical

    # ------------------------------------------------------------------
    def _compile(self, plan: Plan) -> PhysicalPlan:
        if isinstance(plan, Scan):
            node: PhysicalPlan = SeqScan(plan.relation, plan.name, plan.alias)
        elif isinstance(plan, Select):
            node = self._compile_select(plan)
        elif isinstance(plan, Project):
            node = Projection(self._compile(plan.child), plan.columns)
        elif isinstance(plan, ProjectAs):
            node = ProjectionAs(self._compile(plan.child), plan.items)
        elif isinstance(plan, Extend):
            node = ExtendOp(self._compile(plan.child), plan.items)
        elif isinstance(plan, Join):
            node = self._compile_join(plan)
        elif isinstance(plan, SemiJoin):
            node = SemiJoinOp(
                self._compile(plan.left), self._compile(plan.right), plan.predicate
            )
        elif isinstance(plan, Product):
            node = NestedLoopJoin(self._compile(plan.left), self._compile(plan.right), None)
        elif isinstance(plan, Union):
            node = Append(self._compile(plan.left), self._compile(plan.right))
        elif isinstance(plan, Difference):
            node = Except(self._compile(plan.left), self._compile(plan.right))
        elif isinstance(plan, Distinct):
            node = HashDistinct(self._compile(plan.child))
        elif isinstance(plan, Rename):
            node = _RenameOp(self._compile(plan.child), plan)
        elif isinstance(plan, ConfCompute):
            node = Confidence(
                self._compile(plan.child),
                plan.d_width,
                plan.tid_count,
                plan.value_names,
                plan.world_table,
                plan.method,
                plan.epsilon,
                plan.delta,
                plan.seed,
            )
        else:
            raise TypeError(f"cannot compile logical node {type(plan).__name__}")
        node.estimated_rows = estimate_rows(plan)
        return node

    # ------------------------------------------------------------------
    # selections: IndexScan vs Filter(SeqScan)
    # ------------------------------------------------------------------
    def _compile_select(self, plan: Select) -> PhysicalPlan:
        if self.use_indexes:
            node = self._try_index_scan(plan)
            if node is not None:
                return node
        return Filter(self._compile(plan.child), plan.predicate)

    def _try_index_scan(self, plan: Select) -> Optional[IndexScan]:
        scan = _base_scan(plan.child)
        if scan is None:
            return None
        available = indexes_on(scan.relation)
        if not available:
            return None
        schema = plan.child.schema
        conjuncts = split_conjuncts(plan.predicate)
        eq, ranges = _classify_conjuncts(conjuncts, schema)
        if not eq and not ranges:
            return None
        stats = scan_stats(scan)
        table_rows = float(len(scan.relation))
        base_names = scan.relation.schema.names

        best: Optional[Tuple[float, IndexScan]] = None
        for index in available:
            candidate: Optional[Tuple[float, IndexScan]] = None
            if all(p in eq for p in index.positions):
                candidate = self._point_candidate(
                    index, eq, conjuncts, schema, scan, stats, base_names, table_rows
                )
            elif (
                isinstance(index, SortedIndex)
                and len(index.positions) == 1
                and index.positions[0] in ranges
            ):
                candidate = self._range_candidate(
                    index, ranges, conjuncts, schema, scan, stats, base_names, table_rows
                )
            if candidate is not None and (best is None or candidate[0] < best[0]):
                best = candidate
        if best is None:
            return None
        estimated_matches, node = best
        if not use_index_scan(estimated_matches, table_rows):
            return None
        return node

    def _point_candidate(
        self, index, eq, conjuncts, schema, scan, stats, base_names, table_rows
    ) -> Tuple[float, IndexScan]:
        values = [eq[p][0] for p in index.positions]
        consumed = {id(eq[p][1]) for p in index.positions}
        selectivity = 1.0
        for p in index.positions:
            column = stats.column(base_names[p])
            selectivity *= column.eq_selectivity() if column else EQUALITY_DEFAULT
        if any(v is None for v in values):
            # equality with a NULL literal matches nothing.  A Param slot
            # is never None here (it is the Param object itself; its value
            # resolves per execution), so parameterized point lookups keep
            # the column's equality selectivity.
            selectivity = 0.0
        point = values[0] if len(values) == 1 else tuple(values)
        cond = conjunction([eq[p][1] for p in index.positions])
        node = self._index_scan_node(
            index, scan, schema, conjuncts, consumed, point=point, cond=cond
        )
        return table_rows * selectivity, node

    def _range_candidate(
        self, index, ranges, conjuncts, schema, scan, stats, base_names, table_rows
    ) -> Optional[Tuple[float, IndexScan]]:
        """Build a range IndexScan from the column's bound conjuncts.

        Literal bounds tighten at plan time as before.  A ``$n`` Param
        bound cannot be compared now, so it is *deferred*: it becomes the
        side's bound only when no literal already bounds that side and it
        is the side's sole parameterized bound (a second one could not be
        intersected without plan-time values) — the IndexScan then
        resolves the Param at execution, so one cached plan serves
        ``BETWEEN $1 AND $2`` across all bindings.  Unused Param bounds
        stay in the residual.
        """
        position = index.positions[0]
        column = stats.column(base_names[position])
        lower: Optional[Tuple[Any, bool]] = None
        upper: Optional[Tuple[Any, bool]] = None
        applied: Dict[int, List[bool]] = {}
        deferred: Dict[bool, List[Tuple[Param, bool, Expression]]] = {
            True: [],
            False: [],
        }
        for op, value, conjunct in ranges[position]:
            is_lower = op in (">", ">=")
            if isinstance(value, Param):
                deferred[is_lower].append((value, op in (">=", "<="), conjunct))
                continue
            outcome = False
            if value is not None:
                try:
                    if is_lower:
                        lower = _tighten(lower, (value, op == ">="), is_lower=True)
                    else:
                        upper = _tighten(upper, (value, op == "<="), is_lower=False)
                    outcome = True
                except TypeError:
                    outcome = False  # incomparable bound: leave it to the residual
            applied.setdefault(id(conjunct), []).append(outcome)
        parameterized = False
        for is_lower, entries in deferred.items():
            side = lower if is_lower else upper
            usable = side is None and len(entries) == 1
            for param, inclusive, conjunct in entries:
                applied.setdefault(id(conjunct), []).append(usable)
            if usable:
                param, inclusive, _ = entries[0]
                parameterized = True
                if is_lower:
                    lower = (param, inclusive)
                else:
                    upper = (param, inclusive)
        if lower is None and upper is None:
            return None
        if parameterized:
            # bound values are unknown until execution: default estimates
            selectivity = (
                RANGE_DEFAULT if (lower is None or upper is None) else RANGE_DEFAULT / 2
            )
        elif column is not None:
            selectivity = column.interval_selectivity(
                lower[0] if lower else None, upper[0] if upper else None
            )
        else:
            selectivity = RANGE_DEFAULT if (lower is None or upper is None) else RANGE_DEFAULT / 2
        # a conjunct is consumed only if *all* its bounds were applied
        # (a half-applied BETWEEN still narrows the range soundly, but its
        # other half must be re-checked by the residual)
        consumed = {cid for cid, outcomes in applied.items() if all(outcomes)}
        cond_parts = [c for c in conjuncts if id(c) in consumed]
        node = self._index_scan_node(
            index,
            scan,
            schema,
            conjuncts,
            consumed,
            lower=lower,
            upper=upper,
            cond=conjunction(cond_parts) if cond_parts else None,
        )
        return table_rows * selectivity, node

    def _index_scan_node(
        self,
        index,
        scan: Scan,
        schema,
        conjuncts: Sequence[Expression],
        consumed: set,
        point: Any = None,
        lower: Optional[Tuple[Any, bool]] = None,
        upper: Optional[Tuple[Any, bool]] = None,
        cond: Optional[Expression] = None,
    ) -> IndexScan:
        residual_parts = [c for c in conjuncts if id(c) not in consumed]
        residual = conjunction(residual_parts) if residual_parts else None
        kwargs: Dict[str, Any] = {}
        if lower is not None or upper is not None:
            if lower is not None:
                kwargs["lower"], kwargs["lower_inclusive"] = lower
            if upper is not None:
                kwargs["upper"], kwargs["upper_inclusive"] = upper
        else:
            kwargs["point"] = point
        return IndexScan(
            index,
            scan.name,
            schema,
            alias=scan.alias,
            index_cond=repr(cond) if cond is not None else None,
            residual=residual,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # joins: IndexNestedLoopJoin vs HashJoin
    # ------------------------------------------------------------------
    def _compile_join(self, plan: Join) -> PhysicalPlan:
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        pairs, residual_list = equijoin_pairs(plan.predicate, plan.left.schema, plan.right.schema)
        residual = conjunction(residual_list) if residual_list else None
        if pairs:
            if self.use_indexes:
                node = self._try_index_join(plan, left, right, pairs, residual_list)
                if node is not None:
                    return node
            # hash the smaller input; ties keep the classic build-right
            build = "left" if left.estimated_rows < right.estimated_rows else "right"
            return HashJoin(left, right, pairs, residual, build=build)
        return NestedLoopJoin(left, right, plan.predicate)

    def _try_index_join(
        self,
        plan: Join,
        left: PhysicalPlan,
        right: PhysicalPlan,
        pairs: Sequence[Tuple[str, str]],
        residual_list: Sequence[Expression],
    ) -> Optional[IndexNestedLoopJoin]:
        candidates = [
            node
            for flipped in (False, True)
            if (node := self._index_join_candidate(plan, left, right, pairs, residual_list, flipped))
            is not None
        ]
        if not candidates:
            return None
        # probing costs one lookup per outer row: take the smaller outer
        return min(candidates, key=lambda n: n.outer.estimated_rows)

    def _index_join_candidate(
        self,
        plan: Join,
        left: PhysicalPlan,
        right: PhysicalPlan,
        pairs: Sequence[Tuple[str, str]],
        residual_list: Sequence[Expression],
        flipped: bool,
    ) -> Optional[IndexNestedLoopJoin]:
        inner_logical = plan.left if flipped else plan.right
        outer_phys, inner_phys = (right, left) if flipped else (left, right)
        scan, inner_filters = _base_scan_with_filters(inner_logical)
        if scan is None:
            return None
        available = indexes_on(scan.relation)
        if not available:
            return None
        # map inner column positions to their equi-pairs; renames keep
        # positions stable, so these match the index's base positions
        by_position: Dict[int, Tuple[str, str]] = {}
        for l, r in pairs:
            outer_col, inner_col = (r, l) if flipped else (l, r)
            position = _resolve(inner_phys.schema, inner_col)
            if position is not None:
                by_position.setdefault(position, (outer_col, inner_col))
        chosen = None
        for index in available:
            if index.positions and all(p in by_position for p in index.positions):
                chosen = index
                break
        if chosen is None:
            return None
        # the hash alternative must scan (and filter, and hash) the
        # whole base relation; probing costs one lookup per outer row
        if not use_index_join(
            outer_phys.estimated_rows,
            float(len(scan.relation)),
            inner_filtered=bool(inner_filters),
        ):
            return None
        covered = [by_position[p] for p in chosen.positions]
        outer_positions = [outer_phys.schema.resolve(o) for o, _ in covered]
        # equi-pairs the index does not cover degrade to residual checks
        leftover: List[Expression] = []
        remaining = list(covered)
        for l, r in pairs:
            key = (r, l) if flipped else (l, r)
            if key in remaining:
                remaining.remove(key)
                continue
            leftover.append(Comparison("=", Col(l), Col(r)))
        residual_parts = leftover + list(residual_list)
        residual = conjunction(residual_parts) if residual_parts else None
        probe = IndexScan(
            chosen,
            scan.name,
            inner_phys.schema,
            alias=scan.alias,
            probe=True,
            index_cond=" AND ".join(f"({i} = {o})" for o, i in covered),
        )
        probe.estimated_rows = inner_phys.estimated_rows
        return IndexNestedLoopJoin(
            outer_phys,
            probe,
            chosen,
            outer_positions,
            covered,
            residual=residual,
            flipped=flipped,
            inner_filters=inner_filters,
        )


def _classify_conjuncts(
    conjuncts: Sequence[Expression], schema
) -> Tuple[Dict[int, Tuple[Any, Expression]], Dict[int, List[Tuple[str, Any, Expression]]]]:
    """Split conjuncts into per-column equality and range conditions.

    Returns ``(eq, ranges)`` keyed by column *position* in the schema (and
    therefore in the base relation — renames preserve positions).  Only
    column-vs-literal shapes are classified; everything else stays
    unclassified and lands in the residual.  A ``$n`` parameter slot
    counts as a literal for equality *and* range bounds: the classified
    value is the Param object itself, and the index lookup resolves it
    per execution, so one cached plan serves every binding (see
    :meth:`_range_candidate` for how deferred bounds combine with
    plan-time tightening).
    """
    eq: Dict[int, Tuple[Any, Expression]] = {}
    ranges: Dict[int, List[Tuple[str, Any, Expression]]] = {}

    def bound(value):
        return value if isinstance(value, Param) else value.value

    for conjunct in conjuncts:
        if isinstance(conjunct, Comparison):
            cmp = conjunct
            if isinstance(cmp.left, (Lit, Param)) and isinstance(cmp.right, Col):
                cmp = cmp.flipped()
            if not (isinstance(cmp.left, Col) and isinstance(cmp.right, (Lit, Param))):
                continue
            position = _resolve(schema, cmp.left.name)
            if position is None:
                continue
            if cmp.op == "=":
                eq.setdefault(position, (bound(cmp.right), conjunct))
            elif cmp.op in ("<", "<=", ">", ">="):
                ranges.setdefault(position, []).append(
                    (cmp.op, bound(cmp.right), conjunct)
                )
        elif (
            isinstance(conjunct, Between)
            and isinstance(conjunct.operand, Col)
            and isinstance(conjunct.low, (Lit, Param))
            and isinstance(conjunct.high, (Lit, Param))
        ):
            position = _resolve(schema, conjunct.operand.name)
            if position is None:
                continue
            ranges.setdefault(position, []).append((">=", bound(conjunct.low), conjunct))
            ranges.setdefault(position, []).append(("<=", bound(conjunct.high), conjunct))
    return eq, ranges


def _tighten(
    current: Optional[Tuple[Any, bool]], new: Tuple[Any, bool], is_lower: bool
) -> Tuple[Any, bool]:
    """Intersect two (value, inclusive) bounds, keeping the tighter one."""
    if current is None:
        return new
    current_value, current_inclusive = current
    new_value, new_inclusive = new
    if (new_value > current_value) if is_lower else (new_value < current_value):
        return new
    if new_value == current_value:
        return (current_value, current_inclusive and new_inclusive)
    return current


class _RenameOp(PhysicalPlan):
    """Physical rename: rows pass through, only the schema changes."""

    row_passthrough = True

    def __init__(self, child: PhysicalPlan, logical: Rename):
        self.child = child
        self.schema = child.schema.rename(logical.mapping)
        self.mapping = logical.mapping
        self.estimated_rows = child.estimated_rows

    @property
    def children(self):
        return (self.child,)

    def rows(self):
        return self.child.rows()

    def _column_batches(self, size):
        return self.child.column_batches(size)

    def explain_label(self) -> str:
        return "Rename"


# ======================================================================
# pipeline fusion (post-pass over the physical tree)
# ======================================================================
def _through_renames(node: PhysicalPlan) -> PhysicalPlan:
    """Look through pass-through (rename) wrappers.

    Renames change names, never positions, so predicates and projections
    compiled above them apply unchanged to the rows underneath.
    """
    while node.row_passthrough:
        node = node.children[0]
    return node


def _reanchor(
    expression: Expression,
    from_schema,
    to_schema,
    position_map: Optional[Sequence[int]] = None,
) -> Expression:
    """Rewrite column refs from one schema to another by *position*.

    ``position_map`` (a fused pipeline's output positions) translates a
    position in ``from_schema`` to the matching position in ``to_schema``;
    without it positions carry over unchanged (the rename case).
    """

    def moved(column: Col) -> Col:
        position = from_schema.resolve(column.name)
        if position_map is not None:
            position = position_map[position]
        return Col(to_schema.names[position])

    return map_columns(expression, moved)


_FOLDABLE_JOINS = (HashJoin, IndexNestedLoopJoin)


def _fuse_children(node: PhysicalPlan) -> None:
    """Recursively fuse every child subtree (replacing child references)."""
    if isinstance(
        node,
        (Filter, Projection, ProjectionAs, ExtendOp, HashDistinct, _RenameOp, Confidence),
    ):
        node.child = _fuse_tree(node.child)
    elif isinstance(node, (HashJoin, Append, Except, NestedLoopJoin, SemiJoinOp)):
        node.left = _fuse_tree(node.left)
        node.right = _fuse_tree(node.right)
    elif isinstance(node, IndexNestedLoopJoin):
        node.outer = _fuse_tree(node.outer)


def _fuse_tree(node: PhysicalPlan) -> PhysicalPlan:
    """Fuse scan→filter→project chains and fold projections into joins.

    Children are fused bottom-up first; schemas of replaced subtrees are
    preserved exactly, so parent operators' resolved positions stay valid.
    """
    _fuse_children(node)

    if isinstance(node, (Projection, ProjectionAs)):
        inner = _through_renames(node.child)
        if isinstance(inner, FusedPipeline):
            positions = (
                [inner.positions[p] for p in node.positions]
                if inner.positions is not None
                else list(node.positions)
            )
            fused = FusedPipeline(inner.source, inner.predicate, positions, node.schema)
            fused.estimated_rows = node.estimated_rows
            return fused
        if isinstance(inner, _FOLDABLE_JOINS):
            if inner.output_positions is not None:
                composed = [inner.output_positions[p] for p in node.positions]
            else:
                composed = list(node.positions)
            inner.set_output(composed, node.schema)
            return inner
        if isinstance(inner, (SeqScan, IndexScan)):
            fused = FusedPipeline(inner, None, list(node.positions), node.schema)
            fused.estimated_rows = node.estimated_rows
            return fused
        return node

    if isinstance(node, Filter):
        inner = _through_renames(node.child)
        if isinstance(inner, FusedPipeline):
            anchored = _reanchor(
                node.predicate, node.child.schema, inner.source.schema, inner.positions
            )
            predicate = (
                conjunction([inner.predicate, anchored])
                if inner.predicate is not None
                else anchored
            )
            fused = FusedPipeline(inner.source, predicate, inner.positions, node.schema)
            fused.estimated_rows = node.estimated_rows
            return fused
        if isinstance(inner, (SeqScan, IndexScan)):
            anchored = _reanchor(node.predicate, node.child.schema, inner.schema)
            fused = FusedPipeline(inner, anchored, None, node.schema)
            fused.estimated_rows = node.estimated_rows
            return fused
        return node

    return node


def plan_physical(plan: Plan, use_indexes: bool = True, fuse: bool = False) -> PhysicalPlan:
    """Compile a logical plan: ``fuse=True`` (with access paths) for the
    executor, as a cached U-query plan is; unfused and
    ``use_indexes=False`` for the ``rows()`` reference, as
    ``repro.core.translate.reference_query`` plans it."""
    return Planner(use_indexes=use_indexes, fuse=fuse).compile(plan)


def run(
    plan: Plan,
    optimize_first: bool = True,
    mode: str = "columns",
    use_indexes: bool = True,
) -> Relation:
    """Optimize, compile, and execute a logical plan.

    ``mode="columns"`` (the default) runs the executor over a fused plan;
    ``mode="rows"`` runs the tuple-at-a-time reference over the unfused
    one.  ``use_indexes=False`` additionally disables access-path
    selection (every scan sequential, every equi-join hashed).
    """
    from .optimizer import optimize
    from .physical import execute

    if optimize_first:
        plan = optimize(plan)
    physical = plan_physical(plan, use_indexes=use_indexes, fuse=mode == "columns")
    return execute(physical, mode=mode)
