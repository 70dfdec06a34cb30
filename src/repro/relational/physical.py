"""Physical operators and plan execution (columnar, batch-at-a-time).

Physical plans mirror the logical nodes but carry concrete algorithms:

* ``SeqScan``        — iterate a base relation
* ``IndexScan``      — point/range access through a secondary index
* ``FusedPipeline``  — scan→filter→project fused into one generated loop
* ``Filter``         — predicate filter
* ``Projection``     — positional projection
* ``ProjectionAs``   — projection with duplication and renaming
* ``ExtendOp``       — pass-through plus computed columns
* ``HashJoin``       — build/probe equi-join with residual filter
* ``IndexNestedLoopJoin`` — probe a prebuilt inner-side index per outer row
* ``MergeJoin``      — sort-merge equi-join with residual filter
* ``NestedLoopJoin`` — general-predicate join (also cross product)
* ``SemiJoinOp``     — left semijoin (hashed on its equi-pairs, if any)
* ``HashDistinct``   — duplicate elimination
* ``Append``         — bag union
* ``Except``         — set difference
* ``Sort``           — explicit sort (used under MergeJoin)
* ``Confidence``     — per-value-tuple confidence over a U-relation input

Execution model
---------------
Every operator speaks exactly two protocols:

* ``column_batches(size)`` is the executor (``mode="columns"``, the
  default, and the only path a served request runs).  Operators exchange
  :class:`~repro.relational.columnar.ColumnBatch` values — per-column
  ``list``/``tuple`` vectors of at most ``size`` (:data:`BATCH_SIZE`,
  1024) rows.  Scans slice a cached column store of the base relation,
  filters run one generated loop per batch (the predicate inlined into a
  single comprehension), projections re-select column vectors without
  touching rows, and the two probing equi-joins (``HashJoin``,
  ``IndexNestedLoopJoin``) share one body, :func:`_probe_batches`: a
  generated kernel per join, for a key of any width, that resolves a
  batch's keys against the hash table or index, checks the residual and
  emits output columns directly by gathering from both inputs — a
  downstream-folded projection means dropped columns are never
  materialized at all.  Six operators work on row
  tuples because their inputs or algorithms are row-shaped (index
  buckets hold row tuples; merge, nested-loop, semi-join and set
  difference compare whole rows): ``IndexScan``, ``FusedPipeline`` over
  an ``IndexScan``, ``SemiJoinOp``, ``MergeJoin``, ``NestedLoopJoin`` and
  ``Except`` read their children through :func:`_row_batches` and emit
  :meth:`ColumnBatch.from_rows`, which transposes (one C-speed ``zip``)
  only when a consumer reads the columns: between two such operators the
  rows pass through untouched.
* ``rows()`` (``mode="rows"``) is the *reference*: a tuple-at-a-time
  iterator in which every body calls only its children's ``rows()`` and
  *bound* (interpreted, never generated) expressions, so it shares no
  kernel, no batch boundary and — planned with ``use_indexes=False``,
  ``fuse=False`` — no access path with the executor.  It exists to be
  compared against: the tests and the declared benchmark check every
  served answer against it.  It is not meant to be fast.

Every operator implements ``rows()`` and ``_column_batches(size)``, each
with one body per algorithm — no operator chooses between a generated and
a hand-written loop, or between a sorting and an index-reading merge.  The
inherited wrapper :meth:`PhysicalPlan.column_batches` counts the rows and
batches each operator produced — for a fused pipeline per pipeline, not
per fused-away operator.  ``rows()`` keeps no counters.

A plan is a value; an execution is an argument.  Plans are cached and run
by any number of threads at once, so nothing an execution reads or
produces lives on a node: the ``$n`` values, the per-operator ``(rows,
batches)`` counters and the ``conf`` summary belong to the calling
thread's frame (:func:`~repro.relational.expressions.executing`), and
``actual_rows``, ``actual_batches``, :meth:`PhysicalPlan.actuals` and
``Confidence.last_summary`` read that frame — ``None`` for an operator the
thread's current execution did not run.  Outside ``__init__`` /
``set_output`` a node is assigned only plan-only memos, whose values any
execution derives equal: ``FusedPipeline._select`` and the joins'
``_planned`` (kernels), and the entries of ``Confidence._decode_cache``.

The planner can additionally *fuse* maximal scan→filter→project chains
into single :class:`FusedPipeline` operators and fold projections into
join emits (``set_output``); see :mod:`repro.relational.planner`.

Operators also expose ``explain_label`` and estimated cardinality for
EXPLAIN output.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .columnar import (
    ColumnBatch,
    map_kernel,
    pipeline_kernel,
    probe_kernel,
    row_projector,
    selection_kernel,
)
from .expressions import Expression, Param, frame, has_null_literal
from .index import HashIndex, Index, SortedIndex
from .relation import Relation, _sort_key
from .schema import Schema

__all__ = [
    "BATCH_SIZE",
    "Batch",
    "ColumnBatch",
    "PhysicalPlan",
    "SeqScan",
    "IndexScan",
    "FusedPipeline",
    "Filter",
    "Projection",
    "ProjectionAs",
    "ExtendOp",
    "HashJoin",
    "IndexNestedLoopJoin",
    "MergeJoin",
    "NestedLoopJoin",
    "SemiJoinOp",
    "HashDistinct",
    "Append",
    "Except",
    "Sort",
    "Confidence",
    "execute",
]

Row = Tuple[Any, ...]
Batch = List[Row]

#: Default number of rows per exchanged batch.
BATCH_SIZE = 1024


def _keyer(positions: Sequence[int]) -> Callable[[Row], Any]:
    """A hash-key extractor; single-column keys stay scalar (cheaper)."""
    if len(positions) == 1:
        i = positions[0]
        return lambda row: row[i]
    return itemgetter(*positions)


def _key_is_null(key: Any, single: bool) -> bool:
    if single:
        return key is None
    return None in key


class PhysicalPlan:
    """Base class for physical operators."""

    schema: Schema
    estimated_rows: float = 0.0
    #: True for operators that pass rows through unchanged (schema-only
    #: wrappers, e.g. renames) — fusion and access-path matching look
    #: through them.
    row_passthrough: bool = False

    @property
    def children(self) -> Tuple["PhysicalPlan", ...]:
        return ()

    def rows(self) -> Iterator[Row]:
        """The reference tuple-at-a-time iterator (``mode="rows"``)."""
        raise NotImplementedError

    def column_batches(self, size: int = BATCH_SIZE) -> Iterator[ColumnBatch]:
        """The executor's iterator, with runtime row/batch accounting.

        Non-positive ``size`` degrades to 1 (one-row batches) rather than
        erroring, so callers can sweep batch sizes freely.
        """
        if size <= 0:
            size = 1
        produced_rows = 0
        produced_batches = 0
        for batch in self._column_batches(size):
            produced_rows += batch.length
            produced_batches += 1
            yield batch
        frame.counters[self] = (produced_rows, produced_batches)

    @property
    def actual_rows(self) -> Optional[int]:
        """Rows this operator produced in the calling thread's execution
        (``None`` when that execution never drained it)."""
        return frame.counters.get(self, (None, None))[0]

    @property
    def actual_batches(self) -> Optional[int]:
        """Batches this operator produced in the calling thread's execution."""
        return frame.counters.get(self, (None, None))[1]

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        """Operator-specific batch production."""
        raise NotImplementedError

    def explain_label(self) -> str:
        return type(self).__name__

    def explain_details(self) -> List[str]:
        """Extra indented lines under the node header in EXPLAIN output."""
        return []

    def actuals(self) -> dict:
        """The operator tree's runtime accounting as a nested dict.

        Reads the counters the batch iterators recorded in the calling
        thread's frame — free to call after an execution on the thread
        that ran it, no re-run.  Nodes that never produced (e.g. the
        unexecuted branches of an early-exited plan) report ``None``.
        This is what query traces attach under the ``operators`` attribute
        and what ``explain_analyze(trace=True)`` returns structurally.
        """
        return {
            "operator": self.explain_label(),
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "actual_batches": self.actual_batches,
            "children": [child.actuals() for child in self.children],
        }

    def column_nullable(self, position: int) -> bool:
        """Whether an output column can contain NULL (conservative).

        Derived statically from the plan: base scans consult the cached
        per-column nullability of their relation, and row-preserving
        operators delegate by position.  The columnar executor selects
        NULL-guard-free kernel bodies when every referenced column is
        provably clean; ``True`` (the safe default) keeps the guards.
        """
        if self.row_passthrough:
            return self.children[0].column_nullable(position)
        return True


def _row_batches(plan: PhysicalPlan, size: int) -> Iterator[Batch]:
    """A child's output as row batches (at most one ``zip`` transpose each).

    How the operators whose bodies work on row tuples read their inputs.
    """
    for cb in plan.column_batches(size):
        yield cb.to_rows()


def _all_rows(plan: PhysicalPlan, size: int) -> List[Row]:
    """Every row of a child, for the operators that must hold an input."""
    out: List[Row] = []
    for batch in _row_batches(plan, size):
        out.extend(batch)
    return out


def _column_chunks(rows: Sequence[Row], size: int, width: int) -> Iterator[ColumnBatch]:
    """Emit a materialized row list as column batches of at most ``size``."""
    for start in range(0, len(rows), size):
        yield ColumnBatch.from_rows(rows[start : start + size], width)


def _probe_batches(
    streamed: PhysicalPlan, size: int, kernel: Callable, lookup: Callable, fast: bool
) -> Iterator[ColumnBatch]:
    """The executor body of both equi-joins: every batch of the streamed
    side goes through the join's generated probe kernel
    (:func:`~repro.relational.columnar.probe_kernel`) as column vectors,
    and only the (possibly folded) output columns are ever materialized —
    gathered from those vectors and the rows ``lookup`` matched."""
    for cb in streamed.column_batches(size):
        out_cols, count = kernel(lookup, cb.columns, fast)
        if count:
            yield ColumnBatch(list(out_cols), count)


class SeqScan(PhysicalPlan):
    """Sequential scan over a materialized base relation."""

    def __init__(self, relation: Relation, name: str = "relation", alias: Optional[str] = None):
        self.relation = relation
        self.name = name
        self.alias = alias
        self.schema = relation.schema.qualify(alias) if alias else relation.schema
        self.estimated_rows = float(len(relation.rows))

    def rows(self) -> Iterator[Row]:
        return iter(self.relation.rows)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        store = self.relation.column_store()
        total = len(self.relation.rows)
        for s in range(0, total, size):
            e = min(s + size, total)
            yield ColumnBatch([c[s:e] for c in store], e - s)

    def column_nullable(self, position: int) -> bool:
        return self.relation.column_has_null(position)

    def explain_label(self) -> str:
        if self.alias:
            return f"Seq Scan on {self.name} {self.alias}"
        return f"Seq Scan on {self.name}"


#: Sentinel distinguishing "no point lookup" from a point lookup on NULL.
_NO_POINT = object()


def _resolve_key(point: Any) -> Any:
    """Resolve ``$n`` parameter slots in a point-lookup key at run time.

    The planner stores :class:`~repro.relational.expressions.Param`
    slots in cached plans; each execution reads its own frame's value
    here, so one plan serves every binding.
    """
    if isinstance(point, Param):
        return point.value
    if isinstance(point, tuple) and any(isinstance(v, Param) for v in point):
        return tuple(v.value if isinstance(v, Param) else v for v in point)
    return point


class IndexScan(PhysicalPlan):
    """Base-relation access through a secondary index.

    Three access modes:

    * *point* — ``point`` is the lookup key (scalar for single-column
      indexes, tuple otherwise); works on hash and sorted indexes,
    * *range* — ``lower``/``upper`` bounds on the first index column
      (sorted indexes only),
    * *full*  — no condition: an ordered scan of a sorted index.

    ``residual`` is the leftover predicate the index condition does not
    cover; it is evaluated against every fetched row.  The ``schema`` is
    the scan's *output* schema, which may be a renamed/qualified view of
    the indexed relation's schema — positions are identical, so index rows
    flow through unchanged.

    A ``probe=True`` instance is the display-only inner side of an
    :class:`IndexNestedLoopJoin`; it is never executed (the join probes the
    index directly) and produces nothing if drained.
    """

    def __init__(
        self,
        index: Index,
        name: str,
        schema: Schema,
        alias: Optional[str] = None,
        point: Any = _NO_POINT,
        lower: Any = None,
        upper: Any = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
        index_cond: Optional[str] = None,
        residual: Optional[Expression] = None,
        probe: bool = False,
    ):
        #: The indexed relation, held here because the index holds it only
        #: weakly: a plan keeps the relation version it was planned over.
        self.relation = index.relation
        if len(schema) != len(self.relation.schema):
            raise ValueError("IndexScan schema must mirror the indexed relation")
        ranged = lower is not None or upper is not None
        if point is not _NO_POINT and ranged:
            raise ValueError("IndexScan takes a point key or range bounds, not both")
        if ranged and not isinstance(index, SortedIndex):
            raise ValueError("range access requires a SortedIndex")
        if point is _NO_POINT and not ranged and not probe and not isinstance(index, SortedIndex):
            raise ValueError("full scan access requires a SortedIndex")
        self.index = index
        self.name = name
        self.alias = alias
        self.schema = schema
        self.point = point
        self.lower = lower
        self.upper = upper
        self.lower_inclusive = lower_inclusive
        self.upper_inclusive = upper_inclusive
        self.index_cond = index_cond
        self.probe = probe
        self.residual = residual
        self._bound_residual = residual.bind(schema) if residual is not None else None
        self._compiled_residual = residual.compile(schema) if residual is not None else None
        self.estimated_rows = float(len(index))

    def _matched(self) -> Sequence[Row]:
        if self.probe:
            return ()
        if self.point is not _NO_POINT:
            return self.index.lookup(_resolve_key(self.point))
        if self.lower is None and self.upper is None:
            return self.index.ordered()  # type: ignore[union-attr]  # SortedIndex per __init__
        # ``$n`` bounds resolve per execution, so one cached plan serves
        # ``BETWEEN $1 AND $2`` under every binding; a bound resolving to
        # NULL matches nothing (SQL comparison semantics)
        lower, upper = self.lower, self.upper
        if isinstance(lower, Param):
            lower = lower.value
            if lower is None:
                return ()
        if isinstance(upper, Param):
            upper = upper.value
            if upper is None:
                return ()
        return self.index.range(  # type: ignore[union-attr]  # SortedIndex checked in __init__
            lower, upper, self.lower_inclusive, self.upper_inclusive
        )

    def rows(self) -> Iterator[Row]:
        residual = self._bound_residual
        if residual is None:
            return iter(self._matched())
        return (row for row in self._matched() if residual(row))

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        matched = self._matched()
        residual = self._compiled_residual
        if residual is not None:
            matched = [row for row in matched if residual(row)]
        return _column_chunks(matched, size, len(self.schema))

    def explain_label(self) -> str:
        target = f"{self.name} {self.alias}" if self.alias else self.name
        return f"Index Scan using {self.index.name} on {target}"

    def explain_details(self) -> List[str]:
        details = []
        if self.index_cond:
            details.append(f"Index Cond: {self.index_cond}")
        if self.residual is not None:
            details.append(f"Filter: {self.residual!r}")
        return details

    def column_nullable(self, position: int) -> bool:
        # positions mirror the indexed base relation's schema
        return self.relation.column_has_null(position)


class FusedPipeline(PhysicalPlan):
    """A fused scan→filter→project pipeline in one generated loop.

    The planner's fusion pass collapses each maximal chain of
    ``Projection``/``ProjectionAs`` over ``Filter`` (through pass-through
    renames) over a base access (``SeqScan`` or ``IndexScan``) into one of
    these.  ``predicate`` is re-anchored to the source's schema (renames
    never move columns, so positions are stable) and ``positions`` are the
    output columns as source positions; either may be ``None``.

    Over a ``SeqScan`` the predicate runs as a vector kernel over the
    scan's column store and only the output columns are gathered, so
    dropped columns are never materialized.  Over an ``IndexScan`` (whose
    index buckets hold row tuples anyway) one generated list comprehension
    per row batch does both — predicate inlined, output tuple built in
    place — and the result is transposed once at the boundary.
    """

    def __init__(
        self,
        source: PhysicalPlan,
        predicate: Optional[Expression],
        positions: Optional[Sequence[int]],
        schema: Schema,
    ):
        if predicate is None and positions is None:
            raise ValueError("a fused pipeline needs a predicate or a projection")
        self.source = source
        self.predicate = predicate
        self.positions = list(positions) if positions is not None else None
        self.schema = schema
        self.estimated_rows = source.estimated_rows
        #: The generated selection kernel, looked up on first execution:
        #: a function of the plan only (never of ``$n`` bindings), so
        #: later executions of a cached plan skip the kernel-cache key.
        self._select: Optional[Callable] = None

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.source,)

    def rows(self) -> Iterator[Row]:
        bound = (
            self.predicate.bind(self.source.schema)
            if self.predicate is not None
            else None
        )
        positions = self.positions
        for row in self.source.rows():
            if bound is None or bound(row):
                yield row if positions is None else tuple(row[p] for p in positions)

    def _selection(self) -> Callable:
        select = self._select
        if select is None:
            # the scan's base relation has cached per-column nullability:
            # provably NULL-free predicates run without NULL guards
            relation = self.source.relation
            assume = not has_null_literal(self.predicate) and not any(
                relation.column_has_null(self.source.schema.resolve(name))
                for name in self.predicate.columns()
            )
            select = self._select = selection_kernel(
                self.predicate, self.source.schema, assume_non_null=assume
            )
        return select

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        if not isinstance(self.source, SeqScan):
            kernel = pipeline_kernel(self.predicate, self.positions, self.source.schema)
            width = len(self.schema)
            for batch in _row_batches(self.source, size):
                out = kernel(batch)
                if out:
                    yield ColumnBatch.from_rows(out, width)
            return
        select = self._selection() if self.predicate is not None else None
        positions = self.positions
        for cb in self.source.column_batches(size):
            columns = cb.columns
            if select is None:
                keep = None
                kept = cb.length
            else:
                keep = select(columns, cb.length)
                kept = len(keep)
                if not kept:
                    continue
                if kept == cb.length:
                    keep = None  # everything passed: reuse the vectors
            wanted = (
                [columns[p] for p in positions]
                if positions is not None
                else columns
            )
            if keep is None:
                yield ColumnBatch(wanted, kept)
            else:
                yield ColumnBatch([[c[i] for i in keep] for c in wanted], kept)

    def explain_label(self) -> str:
        return "Fused Pipeline"

    def explain_details(self) -> List[str]:
        details = []
        if self.predicate is not None:
            details.append(f"Filter: {self.predicate!r}")
        if self.positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details

    def column_nullable(self, position: int) -> bool:
        if self.positions is not None:
            position = self.positions[position]
        return self.source.column_nullable(position)


class Filter(PhysicalPlan):
    """Row filter by a bound predicate."""

    def __init__(self, child: PhysicalPlan, predicate: Expression):
        self.child = child
        self.predicate = predicate
        self._bound = predicate.bind(child.schema)
        self.schema = child.schema
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Row]:
        bound = self._bound
        for row in self.child.rows():
            if bound(row):
                yield row

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        kernel = selection_kernel(self.predicate, self.child.schema)
        for batch in self.child.column_batches(size):
            keep = kernel(batch.columns, batch.length)
            if not keep:
                continue
            if len(keep) == batch.length:
                yield batch
            else:
                yield ColumnBatch(
                    [[c[i] for i in keep] for c in batch.columns], len(keep)
                )

    def explain_label(self) -> str:
        return "Filter"

    def explain_details(self) -> List[str]:
        return [f"Filter: {self.predicate!r}"]

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(position)


class Projection(PhysicalPlan):
    """Positional projection (bag semantics)."""

    def __init__(self, child: PhysicalPlan, columns: Sequence[str]):
        self.child = child
        self.columns = list(columns)
        self.positions = child.schema.positions(self.columns)
        self.schema = child.schema.project(self.columns)
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Row]:
        positions = self.positions
        for row in self.child.rows():
            yield tuple(row[i] for i in positions)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        # columnar projection is column re-selection: no per-row work at all
        positions = self.positions
        for batch in self.child.column_batches(size):
            yield batch.select(positions)

    def explain_label(self) -> str:
        return "Project"

    def explain_details(self) -> List[str]:
        return [f"Output: {', '.join(self.columns)}"]

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(self.positions[position])


class ProjectionAs(PhysicalPlan):
    """Generalized projection with duplication and renaming."""

    def __init__(self, child: PhysicalPlan, items: Sequence[Tuple[str, str]]):
        self.child = child
        self.items = list(items)
        self.positions = [child.schema.resolve(ref) for ref, _ in self.items]
        attrs = []
        for (ref, new), pos in zip(self.items, self.positions):
            attrs.append(child.schema[pos].renamed(new))
        self.schema = Schema(attrs)
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Row]:
        positions = self.positions
        for row in self.child.rows():
            yield tuple(row[i] for i in positions)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        positions = self.positions
        for batch in self.child.column_batches(size):
            yield batch.select(positions)

    def explain_label(self) -> str:
        return "Project"

    def explain_details(self) -> List[str]:
        return ["Output: " + ", ".join(f"{ref} AS {new}" for ref, new in self.items)]

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(self.positions[position])


class ExtendOp(PhysicalPlan):
    """Extended projection: pass-through plus computed columns."""

    def __init__(self, child: PhysicalPlan, items: Sequence[Tuple[str, Expression]]):
        self.child = child
        self.items = list(items)
        self._bound = [expr.bind(child.schema) for _, expr in self.items]
        attrs = list(child.schema.attributes)
        for name, _expr in self.items:
            attrs.append(child.schema.attributes[0].renamed(name))
        self.schema = Schema(attrs)
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Row]:
        bound = self._bound
        for row in self.child.rows():
            yield row + tuple(fn(row) for fn in bound)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        kernels = [map_kernel(expr, self.child.schema) for _, expr in self.items]
        for batch in self.child.column_batches(size):
            extended = list(batch.columns)
            for kernel in kernels:
                extended.append(kernel(batch.columns, batch.length))
            yield ColumnBatch(extended, batch.length)

    def explain_label(self) -> str:
        return "Extend"

    def explain_details(self) -> List[str]:
        return ["Output: *, " + ", ".join(f"{expr!r} AS {name}" for name, expr in self.items)]


class HashJoin(PhysicalPlan):
    """Equi-join: hash-build on one input, probe with the other.

    ``pairs`` is a list of ``(left_col, right_col)`` equalities; an optional
    ``residual`` predicate (over the concatenated schema) filters join
    candidates — this is where the U-relations ψ-condition typically lands.

    By default the *right* input is hashed (the PostgreSQL convention the
    paper's plans show); ``build="left"`` hashes the left input instead and
    streams the right through as the probe side.  The planner picks the
    side with the smaller estimated cardinality.  Output rows are always
    ``left ++ right`` regardless of build side.
    """

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
        build: str = "right",
    ):
        if not pairs:
            raise ValueError("HashJoin requires at least one equi-pair")
        if build not in ("left", "right"):
            raise ValueError(f"build side must be 'left' or 'right', got {build!r}")
        self.left = left
        self.right = right
        self.pairs = list(pairs)
        self.residual = residual
        self.build = build
        self._combined = left.schema.concat(right.schema)
        self.schema = self._combined
        #: Folded downstream projection (positions into the concatenated
        #: schema), set by the planner's fusion pass via :meth:`set_output`.
        self.output_positions: Optional[List[int]] = None
        self.left_positions = [left.schema.resolve(l) for l, _ in self.pairs]
        self.right_positions = [right.schema.resolve(r) for _, r in self.pairs]
        self._bound_residual = residual.bind(self._combined) if residual is not None else None
        self._planned: Optional[Tuple] = None  # see _probe_plan
        self.estimated_rows = max(left.estimated_rows, right.estimated_rows)

    def set_output(self, positions: Sequence[int], schema: Schema) -> None:
        """Fold a downstream projection into the join's emit (fusion)."""
        self.output_positions = list(positions)
        self.schema = schema
        self._planned = None

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        build_left = self.build == "left"
        build_plan, build_positions = (
            (self.left, self.left_positions)
            if build_left
            else (self.right, self.right_positions)
        )
        probe_plan, probe_positions = (
            (self.right, self.right_positions)
            if build_left
            else (self.left, self.left_positions)
        )
        table: Dict[Tuple[Any, ...], List[Row]] = {}
        for row in build_plan.rows():
            key = tuple(row[i] for i in build_positions)
            if any(v is None for v in key):
                continue  # NULLs never join
            table.setdefault(key, []).append(row)
        residual = self._bound_residual
        project = (
            row_projector(self.output_positions)
            if self.output_positions is not None
            else None
        )
        for prow in probe_plan.rows():
            key = tuple(prow[i] for i in probe_positions)
            if any(v is None for v in key):
                continue
            for brow in table.get(key, ()):
                out = brow + prow if build_left else prow + brow
                if residual is None or residual(out):
                    yield out if project is None else project(out)

    def _build_table(self, size: int) -> Dict[Any, List[Row]]:
        """Hash the build side (NULL keys excluded, as NULLs never join).

        Keys come straight off the build side's column vectors and the
        bucketed rows from one C-speed transpose per batch.
        """
        single = len(self.pairs) == 1
        build_plan, build_positions = (
            (self.left, self.left_positions)
            if self.build == "left"
            else (self.right, self.right_positions)
        )
        table: Dict[Any, List[Row]] = {}
        setdefault = table.setdefault
        for cb in build_plan.column_batches(size):
            if single:
                keys: Any = cb.columns[build_positions[0]]
            else:
                keys = zip(*(cb.columns[p] for p in build_positions))
            for key, row in zip(keys, cb.to_rows()):
                if _key_is_null(key, single):
                    continue
                setdefault(key, []).append(row)
        return table

    def _probe_plan(self) -> Tuple:
        """-> (generated probe kernel, its NULL-freedom flag).

        Everything the probe loop needs besides the hash table is a
        function of the plan only, never of ``$n`` bindings: it is derived
        on the first execution (fusion has settled ``output_positions`` by
        then) and held, so later executions of a cached plan skip the
        kernel-cache lookup and its structural keys.
        """
        if self._planned is not None:
            return self._planned
        probe_is_left = self.build == "right"
        probe_plan, build_plan = (
            (self.left, self.right) if probe_is_left else (self.right, self.left)
        )
        split = len(self.left.schema)
        positions = (
            self.output_positions
            if self.output_positions is not None
            else range(len(self._combined))
        )
        # C-speed hash resolution, the residual inlined, and direct column
        # emit in one loop
        kernel = probe_kernel(
            self._combined,
            split,
            probe_is_left,
            self.left_positions if probe_is_left else self.right_positions,
            self.residual,
            (),
            positions,
        )
        fast = True
        if self.residual is not None:
            # columns the residual consults must be provably NULL-free
            # (from the plan tree) for the kernel's guard-free body
            for name in self.residual.columns():
                p = self._combined.resolve(name)
                on_left = p < split
                side = probe_plan if on_left == probe_is_left else build_plan
                if side.column_nullable(p if on_left else p - split):
                    fast = False
                    break
        self._planned = (kernel, fast)
        return self._planned

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        kernel, fast = self._probe_plan()
        probe_plan = self.right if self.build == "left" else self.left
        return _probe_batches(
            probe_plan, size, kernel, self._build_table(size).get, fast
        )

    def column_nullable(self, position: int) -> bool:
        if self.output_positions is not None:
            position = self.output_positions[position]
        split = len(self.left.schema)
        if position < split:
            return self.left.column_nullable(position)
        return self.right.column_nullable(position - split)

    def explain_label(self) -> str:
        return "Hash Join"

    def explain_details(self) -> List[str]:
        cond = " AND ".join(f"({l} = {r})" for l, r in self.pairs)
        details = [f"Hash Cond: {cond}"]
        if self.residual is not None:
            details.append(f"Join Filter: {self.residual!r}")
        if self.output_positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details


class IndexNestedLoopJoin(PhysicalPlan):
    """Equi-join that probes a prebuilt index on the inner relation.

    For every outer row the join key is extracted (ordered to match the
    index's column order) and looked up in the index — no scan or hash
    build of the inner side happens at all, which is the access-path win
    the paper gets from indexed U-relation partitions: the tid-equijoins
    that reassemble vertical partitions probe the partition's tid index.

    ``inner`` is a display-only plan (normally a probe-mode
    :class:`IndexScan`) supplying the inner schema for EXPLAIN; rows come
    straight out of ``index``.  ``flipped=False`` means the outer is the
    join's logical *left* (output rows are ``outer + inner``);
    ``flipped=True`` swaps the roles but preserves the left-to-right output
    schema (``inner + outer``).  ``pairs`` is ``(outer_col, inner_col)``
    per index column; ``residual`` filters the concatenated row.

    ``inner_filters`` are ``(predicate, schema it binds against)`` pairs
    applied to every probed inner row before concatenation — the planner
    moves the inner side's pushed-down selections here, so a *filtered*
    partition scan can still be replaced by index probes (the filter runs
    on the few matched rows instead of the whole table).
    """

    def __init__(
        self,
        outer: PhysicalPlan,
        inner: PhysicalPlan,
        index: Index,
        outer_positions: Sequence[int],
        pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
        flipped: bool = False,
        inner_filters: Sequence[Tuple[Expression, Schema]] = (),
    ):
        if len(outer_positions) != len(index.positions):
            raise ValueError("outer key width must match the index column count")
        self.outer = outer
        self.inner = inner
        self.index = index
        self.relation = index.relation  # the index holds it only weakly
        self.outer_positions = list(outer_positions)
        self.pairs = list(pairs)
        self.residual = residual
        self.flipped = flipped
        self.inner_filters = list(inner_filters)
        self._bound_filters = [p.bind(s) for p, s in self.inner_filters]
        self._combined = (
            inner.schema.concat(outer.schema)
            if flipped
            else outer.schema.concat(inner.schema)
        )
        self.schema = self._combined
        #: Folded downstream projection (positions into the concatenated
        #: schema), set by the planner's fusion pass via :meth:`set_output`.
        self.output_positions: Optional[List[int]] = None
        self._bound_residual = residual.bind(self._combined) if residual is not None else None
        self._planned: Optional[Tuple] = None  # see _probe_plan
        self.estimated_rows = max(outer.estimated_rows, inner.estimated_rows)

    def set_output(self, positions: Sequence[int], schema: Schema) -> None:
        """Fold a downstream projection into the join's emit (fusion)."""
        self.output_positions = list(positions)
        self.schema = schema
        self._planned = None

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.outer, self.inner)

    def _probe(self, key: Any) -> Sequence[Row]:
        """Matched inner rows for a key, after the inner-side filters."""
        bucket = self.index.lookup(key)
        filters = self._bound_filters
        if not bucket or not filters:
            return bucket
        return [row for row in bucket if all(f(row) for f in filters)]

    def rows(self) -> Iterator[Row]:
        single = len(self.outer_positions) == 1
        key = _keyer(self.outer_positions)
        probe = self._probe
        residual = self._bound_residual
        flipped = self.flipped
        project = (
            row_projector(self.output_positions)
            if self.output_positions is not None
            else None
        )
        for orow in self.outer.rows():
            k = key(orow)
            if _key_is_null(k, single):
                continue
            for irow in probe(k):
                out = irow + orow if flipped else orow + irow
                if residual is None or residual(out):
                    yield out if project is None else project(out)

    def _probe_plan(self) -> Tuple:
        """-> (generated probe kernel, lookup, the kernel's NULL-freedom flag).

        Everything the probe loop reads — schemas, residual,
        ``output_positions``, the index and its relation's NULL facts — is
        fixed once planning ends and never depends on ``$n`` bindings, so
        it is derived on the first execution and held: later executions of
        a cached plan skip the kernel-cache lookup and its structural
        keys (three joins per point lookup made that the dominant cost).
        """
        if self._planned is not None:
            return self._planned
        outer_is_left = not self.flipped
        split = len(self.inner.schema) if self.flipped else len(self.outer.schema)
        positions = (
            self.output_positions
            if self.output_positions is not None
            else range(len(self._combined))
        )
        mixed = isinstance(self.index, HashIndex)
        # lookup, inlined filters and residual, and direct column emit in
        # one loop
        kernel = probe_kernel(
            self._combined,
            split,
            outer_is_left,
            self.outer_positions,
            self.residual,
            self.inner_filters,
            positions,
            mixed=mixed,
        )
        # every column the conditions reference must be provably NULL-free
        # for the kernel's guard-free body: inner refs consult the indexed
        # base relation's cached nullability, outer refs the plan tree
        inner_refs: set = set()
        outer_refs: set = set()
        for expr, schema in self.inner_filters:
            for name in expr.columns():
                inner_refs.add(schema.resolve(name))
        if self.residual is not None:
            for name in self.residual.columns():
                p = self._combined.resolve(name)
                on_left = p < split
                local = p if on_left else p - split
                if on_left == outer_is_left:
                    outer_refs.add(local)
                else:
                    inner_refs.add(local)
        relation = self.relation
        fast = not any(
            relation.column_has_null(q) for q in inner_refs
        ) and not any(self.outer.column_nullable(q) for q in outer_refs)
        lookup = self.index.mixed_table().get if mixed else self.index.lookup_fn()
        self._planned = (kernel, lookup, fast)
        return self._planned

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        kernel, lookup, fast = self._probe_plan()
        return _probe_batches(self.outer, size, kernel, lookup, fast)

    def column_nullable(self, position: int) -> bool:
        if self.output_positions is not None:
            position = self.output_positions[position]
        split = len(self.inner.schema) if self.flipped else len(self.outer.schema)
        on_left = position < split
        local = position if on_left else position - split
        if on_left == (not self.flipped):
            return self.outer.column_nullable(local)
        return self.relation.column_has_null(local)

    def explain_label(self) -> str:
        return "Index Nested Loop Join"

    def explain_details(self) -> List[str]:
        cond = " AND ".join(f"({i} = {o})" for o, i in self.pairs)
        details = [f"Index Cond: {cond}"]
        if self.inner_filters:
            shown = " AND ".join(repr(e) for e, _ in self.inner_filters)
            details.append(f"Probe Filter: {shown}")
        if self.residual is not None:
            details.append(f"Join Filter: {self.residual!r}")
        if self.output_positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details


class SemiJoinOp(PhysicalPlan):
    """Left semijoin: keeps left rows with at least one right partner.

    When the predicate contains equi-pairs (the α tuple-id condition of the
    reduction program always does), the right side is hashed on them and
    only the matching bucket is scanned for the residual (ψ) check;
    otherwise the operator degrades to a nested loop.
    """

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan, predicate: Expression):
        from .expressions import conjunction, equijoin_pairs

        self.left = left
        self.right = right
        self.predicate = predicate
        self.schema = left.schema
        self.pairs, residual_list = equijoin_pairs(
            predicate, left.schema, right.schema
        )
        self.residual = conjunction(residual_list) if residual_list else None
        combined = left.schema.concat(right.schema)
        self._bound_residual = (
            self.residual.bind(combined) if self.residual is not None else None
        )
        self._compiled_residual = (
            self.residual.compile(combined) if self.residual is not None else None
        )
        self._bound_full = predicate.bind(combined)
        self._compiled_full = predicate.compile(combined)
        self.left_positions = [left.schema.resolve(l) for l, _ in self.pairs]
        self.right_positions = [right.schema.resolve(r) for _, r in self.pairs]
        self.estimated_rows = left.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        if self.pairs:
            yield from self._hash_rows()
        else:
            yield from self._loop_rows()

    def _hash_rows(self) -> Iterator[Row]:
        table: Dict[Tuple[Any, ...], List[Row]] = {}
        right_positions = self.right_positions
        for rrow in self.right.rows():
            key = tuple(rrow[i] for i in right_positions)
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(rrow)
        left_positions = self.left_positions
        residual = self._bound_residual
        for lrow in self.left.rows():
            key = tuple(lrow[i] for i in left_positions)
            if any(v is None for v in key):
                continue
            bucket = table.get(key)
            if not bucket:
                continue
            if residual is None:
                yield lrow
                continue
            for rrow in bucket:
                if residual(lrow + rrow):
                    yield lrow
                    break

    def _loop_rows(self) -> Iterator[Row]:
        bound = self._bound_full
        right_rows = list(self.right.rows())
        for lrow in self.left.rows():
            for rrow in right_rows:
                if bound(lrow + rrow):
                    yield lrow
                    break

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        width = len(self.schema)
        kept = self._hash_kept(size) if self.pairs else self._loop_kept(size)
        for out in kept:
            yield ColumnBatch.from_rows(out, width)

    def _hash_kept(self, size: int) -> Iterator[Batch]:
        single = len(self.pairs) == 1
        rkey = _keyer(self.right_positions)
        table: Dict[Any, List[Row]] = {}
        setdefault = table.setdefault
        for batch in _row_batches(self.right, size):
            for rrow in batch:
                key = rkey(rrow)
                if _key_is_null(key, single):
                    continue
                setdefault(key, []).append(rrow)
        lkey = _keyer(self.left_positions)
        residual = self._compiled_residual
        get = table.get
        for batch in _row_batches(self.left, size):
            out: Batch = []
            for lrow in batch:
                key = lkey(lrow)
                if _key_is_null(key, single):
                    continue
                bucket = get(key)
                if not bucket:
                    continue
                if residual is None:
                    out.append(lrow)
                    continue
                for rrow in bucket:
                    if residual(lrow + rrow):
                        out.append(lrow)
                        break
            if out:
                yield out

    def _loop_kept(self, size: int) -> Iterator[Batch]:
        bound = self._compiled_full
        right_rows = _all_rows(self.right, size)
        for batch in _row_batches(self.left, size):
            out: Batch = []
            for lrow in batch:
                for rrow in right_rows:
                    if bound(lrow + rrow):
                        out.append(lrow)
                        break
            if out:
                yield out

    def explain_label(self) -> str:
        return "Hash Semi Join" if self.pairs else "Semi Join"

    def explain_details(self) -> List[str]:
        details = []
        if self.pairs:
            cond = " AND ".join(f"({l} = {r})" for l, r in self.pairs)
            details.append(f"Hash Cond: {cond}")
        if self.residual is not None or not self.pairs:
            details.append(f"Join Filter: {(self.residual or self.predicate)!r}")
        return details


class Sort(PhysicalPlan):
    """Full sort of the child output by the given key columns."""

    def __init__(self, child: PhysicalPlan, keys: Sequence[str]):
        self.child = child
        self.keys = list(keys)
        self.positions = child.schema.positions(self.keys)
        self.schema = child.schema
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _key(self) -> Callable[[Row], Any]:
        positions = self.positions

        def key(row: Row):
            return _sort_key(tuple(row[i] for i in positions))

        return key

    def rows(self) -> Iterator[Row]:
        return iter(sorted(self.child.rows(), key=self._key()))

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        gathered = _all_rows(self.child, size)
        gathered.sort(key=self._key())
        return _column_chunks(gathered, size, len(self.schema))

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(position)

    def explain_label(self) -> str:
        return "Sort"

    def explain_details(self) -> List[str]:
        return [f"Sort Key: {', '.join(self.keys)}"]


class MergeJoin(PhysicalPlan):
    """Sort-merge equi-join (inputs are sorted internally).

    Kept primarily for plan-shape parity with the PostgreSQL plans shown in
    the paper (Figure 13 uses merge joins on tuple-id columns).  Both
    inputs are always drained and sorted under the type-tagged total order
    of ``_sort_key`` (which keeps ``1`` and ``1.0`` apart), whatever
    indexes their relations carry: answers never depend on whether an
    index exists, and executing the join never builds a deferred one.
    """

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
    ):
        if not pairs:
            raise ValueError("MergeJoin requires at least one equi-pair")
        self.left = Sort(left, [l for l, _ in pairs])
        self.right = Sort(right, [r for _, r in pairs])
        self.pairs = list(pairs)
        self.residual = residual
        self._combined = left.schema.concat(right.schema)
        self.schema = self._combined
        #: Folded downstream projection, set via :meth:`set_output`.
        self.output_positions: Optional[List[int]] = None
        self.left_positions = [left.schema.resolve(l) for l, _ in pairs]
        self.right_positions = [right.schema.resolve(r) for _, r in pairs]
        self._bound_residual = residual.bind(self._combined) if residual is not None else None
        self._compiled_residual = (
            residual.compile(self._combined) if residual is not None else None
        )
        self.estimated_rows = max(left.estimated_rows, right.estimated_rows)

    def set_output(self, positions: Sequence[int], schema: Schema) -> None:
        """Fold a downstream projection into the join's emit (fusion)."""
        self.output_positions = list(positions)
        self.schema = schema

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        left_rows = list(self.left.rows())
        right_rows = list(self.right.rows())
        lpos, rpos = self.left_positions, self.right_positions
        residual = self._bound_residual
        project = (
            row_projector(self.output_positions)
            if self.output_positions is not None
            else None
        )

        def lkey(row: Row):
            return _sort_key(tuple(row[i] for i in lpos))

        def rkey(row: Row):
            return _sort_key(tuple(row[i] for i in rpos))

        i = j = 0
        n, m = len(left_rows), len(right_rows)
        while i < n and j < m:
            lk, rk = lkey(left_rows[i]), rkey(right_rows[j])
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                # gather the equal-key groups on both sides
                i2 = i
                while i2 < n and lkey(left_rows[i2]) == lk:
                    i2 += 1
                j2 = j
                while j2 < m and rkey(right_rows[j2]) == rk:
                    j2 += 1
                if not any(
                    v is None for v in (left_rows[i][p] for p in lpos)
                ):  # NULL keys never join
                    for lrow in left_rows[i:i2]:
                        for rrow in right_rows[j:j2]:
                            out = lrow + rrow
                            if residual is None or residual(out):
                                yield out if project is None else project(out)
                i, j = i2, j2

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        width = len(self.schema)
        left_rows = _all_rows(self.left, size)
        right_rows = _all_rows(self.right, size)
        lpos, rpos = self.left_positions, self.right_positions
        lproject = row_projector(lpos)
        rproject = row_projector(rpos)
        # precompute sort keys once per row (the rows() path recomputes them
        # on every group-boundary probe)
        lkeys = [_sort_key(lproject(row)) for row in left_rows]
        rkeys = [_sort_key(rproject(row)) for row in right_rows]
        residual = self._compiled_residual
        project = (
            row_projector(self.output_positions)
            if self.output_positions is not None
            else None
        )

        out: Batch = []
        i = j = 0
        n, m = len(left_rows), len(right_rows)
        while i < n and j < m:
            lk, rk = lkeys[i], rkeys[j]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                i2 = i
                while i2 < n and lkeys[i2] == lk:
                    i2 += 1
                j2 = j
                while j2 < m and rkeys[j2] == rk:
                    j2 += 1
                if not any(v is None for v in lproject(left_rows[i])):
                    right_group = right_rows[j:j2]
                    for lrow in left_rows[i:i2]:
                        if residual is None and project is None:
                            out.extend(lrow + rrow for rrow in right_group)
                        else:
                            for rrow in right_group:
                                joined = lrow + rrow
                                if residual is None or residual(joined):
                                    out.append(
                                        joined if project is None else project(joined)
                                    )
                        if len(out) >= size:
                            yield ColumnBatch.from_rows(out, width)
                            out = []
                i, j = i2, j2
        if out:
            yield ColumnBatch.from_rows(out, width)

    def column_nullable(self, position: int) -> bool:
        if self.output_positions is not None:
            position = self.output_positions[position]
        split = len(self.left.schema)
        if position < split:
            return self.left.column_nullable(position)
        return self.right.column_nullable(position - split)

    def explain_label(self) -> str:
        return "Merge Join"

    def explain_details(self) -> List[str]:
        cond = " AND ".join(f"({l} = {r})" for l, r in self.pairs)
        details = [f"Merge Cond: {cond}"]
        if self.residual is not None:
            details.append(f"Join Filter: {self.residual!r}")
        if self.output_positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details


class NestedLoopJoin(PhysicalPlan):
    """Nested-loop join with an arbitrary predicate (or cross product)."""

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        predicate: Optional[Expression] = None,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.schema = left.schema.concat(right.schema)
        self._bound = predicate.bind(self.schema) if predicate is not None else None
        self._compiled = predicate.compile(self.schema) if predicate is not None else None
        self.estimated_rows = left.estimated_rows * max(right.estimated_rows, 1.0)

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        bound = self._bound
        right_rows = list(self.right.rows())
        for lrow in self.left.rows():
            for rrow in right_rows:
                out = lrow + rrow
                if bound is None or bound(out):
                    yield out

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        predicate = self._compiled
        width = len(self.schema)
        right_rows = _all_rows(self.right, size)
        out: Batch = []
        for batch in _row_batches(self.left, size):
            for lrow in batch:
                if predicate is None:
                    out.extend(lrow + rrow for rrow in right_rows)
                else:
                    for rrow in right_rows:
                        joined = lrow + rrow
                        if predicate(joined):
                            out.append(joined)
                if len(out) >= size:
                    yield ColumnBatch.from_rows(out, width)
                    out = []
        if out:
            yield ColumnBatch.from_rows(out, width)

    def explain_label(self) -> str:
        return "Nested Loop"

    def explain_details(self) -> List[str]:
        if self.predicate is not None:
            return [f"Join Filter: {self.predicate!r}"]
        return []


class HashDistinct(PhysicalPlan):
    """Duplicate elimination preserving first-seen order."""

    def __init__(self, child: PhysicalPlan):
        self.child = child
        self.schema = child.schema
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Row]:
        seen = set()
        for row in self.child.rows():
            if row not in seen:
                seen.add(row)
                yield row

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        # dedup needs row identity: transpose at the boundary (C-speed zip),
        # keeping the child pipeline columnar
        width = len(self.schema)
        seen: set = set()
        add = seen.add
        for batch in self.child.column_batches(size):
            fresh = [
                row for row in batch.to_rows() if not (row in seen or add(row))
            ]
            if fresh:
                yield ColumnBatch.from_rows(fresh, width)

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(position)

    def explain_label(self) -> str:
        return "HashAggregate"

    def explain_details(self) -> List[str]:
        return ["Group Key: all output columns (distinct)"]


class Append(PhysicalPlan):
    """Bag union of two inputs (schema from the left)."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan):
        self.left = left
        self.right = right
        self.schema = left.schema
        self.estimated_rows = left.estimated_rows + right.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        for row in self.left.rows():
            yield row
        for row in self.right.rows():
            yield row

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        yield from self.left.column_batches(size)
        yield from self.right.column_batches(size)

    def column_nullable(self, position: int) -> bool:
        return self.left.column_nullable(position) or self.right.column_nullable(position)

    def explain_label(self) -> str:
        return "Append"


class Except(PhysicalPlan):
    """Set difference left − right (distinct output)."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan):
        self.left = left
        self.right = right
        self.schema = left.schema
        self.estimated_rows = left.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        gone = set(self.right.rows())
        seen = set()
        for row in self.left.rows():
            if row not in gone and row not in seen:
                seen.add(row)
                yield row

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        width = len(self.schema)
        gone: set = set()
        for batch in _row_batches(self.right, size):
            gone.update(batch)
        add = gone.add  # emitted rows join `gone`, deduplicating the output
        for batch in _row_batches(self.left, size):
            fresh = [row for row in batch if not (row in gone or add(row))]
            if fresh:
                yield ColumnBatch.from_rows(fresh, width)

    def column_nullable(self, position: int) -> bool:
        return self.left.column_nullable(position)

    def explain_label(self) -> str:
        return "SetOp Except"


class Confidence(PhysicalPlan):
    """Per-value-tuple confidence over a translated U-relation input.

    The child produces rows in the canonical U-relation column order:
    ``d_width`` ws-descriptor pairs, ``tid_count`` tuple-id columns, then
    the value columns.  The operator groups rows by value tuple
    batch-at-a-time (columnar batches are grouped natively, without
    materializing a :class:`~repro.core.urelation.URelation` or even row
    tuples beyond the group keys), deduplicates encoded descriptor
    prefixes per group, and computes each group's confidence — the
    probability of the union of its descriptors' world-sets — through the
    world table's shared memoized
    :class:`~repro.core.probability.ConfidenceEngine`.

    ``method`` selects exact enumeration, the bounded-error ``(epsilon,
    delta)`` sampler, or per-component auto selection; the method actually
    used, group counts, and error budget are recorded in the executing
    frame and read back as ``last_summary`` (the serving layer returns it
    as the ``conf`` wire field) and in the
    ``conf_groups_total`` / ``conf_method`` / ``conf_seconds`` metrics.

    Output rows are ``value columns + conf``, sorted by descending
    confidence (ties by value repr), matching
    :func:`~repro.core.probability.confidence_relation`.
    """

    def __init__(
        self,
        child: PhysicalPlan,
        d_width: int,
        tid_count: int,
        value_names: Sequence[str],
        world_table,
        method: str = "auto",
        epsilon: float = 0.01,
        delta: float = 0.05,
        seed: int = 0,
    ):
        self.child = child
        self.d_width = int(d_width)
        self.tid_count = int(tid_count)
        self.value_names = list(value_names)
        self.world_table = world_table
        self.method = method
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)
        self.schema = Schema(self.value_names + ["conf"])
        # distinct value tuples are a fraction of the input U-relation rows
        self.estimated_rows = max(child.estimated_rows * 0.5, 1.0)
        #: encoded descriptor prefix -> Descriptor, shared across executions
        #: of this (plan-cached) operator
        self._decode_cache: Dict[Tuple[Any, ...], Any] = {}

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    @property
    def last_summary(self) -> Optional[Dict[str, Any]]:
        """Summary of this operator's computation in the calling thread's
        execution (wire/trace metadata), ``None`` when it did not run."""
        return frame.summaries.get(self)

    # -- grouping ------------------------------------------------------
    def _grouped_reference(self) -> Dict[Row, set]:
        """values tuple -> set of encoded descriptor prefixes, row by row."""
        dend = 2 * self.d_width
        vstart = dend + self.tid_count
        groups: Dict[Row, set] = {}
        for row in self.child.rows():
            groups.setdefault(row[vstart:], set()).add(row[:dend])
        return groups

    def _grouped_columns(self, size: int) -> Dict[Row, set]:
        """Native columnar grouping: zip only the needed column slices."""
        dend = 2 * self.d_width
        vstart = dend + self.tid_count
        groups: Dict[Row, set] = {}
        for batch in self.child.column_batches(size):
            columns = batch.columns
            if vstart < len(columns):
                values_iter = zip(*columns[vstart:])
            else:
                values_iter = (() for _ in range(batch.length))
            if dend:
                descs_iter = zip(*columns[:dend])
            else:
                descs_iter = (() for _ in range(batch.length))
            for values, enc in zip(values_iter, descs_iter):
                group = groups.get(values)
                if group is None:
                    groups[values] = {enc}
                else:
                    group.add(enc)
        return groups

    # -- confidence computation ----------------------------------------
    def _compute(self, groups: Dict[Row, set]) -> List[Row]:
        import time

        from ..core.descriptor import decode_descriptor
        from ..core.probability import confidence_engine
        from ..obs import counter, histogram

        started = time.perf_counter()
        engine = confidence_engine(self.world_table)
        decode = self._decode_cache
        exact = approx = 0
        out: List[Row] = []
        for values, encs in groups.items():
            descriptors = []
            for enc in encs:
                descriptor = decode.get(enc)
                if descriptor is None:
                    descriptor = decode_descriptor(enc)
                    decode[enc] = descriptor
                descriptors.append(descriptor)
            conf, used = engine.confidence_detail(
                descriptors, self.method, self.epsilon, self.delta, self.seed
            )
            if used == "approx":
                approx += 1
            else:
                exact += 1
            out.append(values + (conf,))
        out.sort(key=lambda row: (-row[-1], tuple(map(repr, row[:-1]))))
        elapsed = time.perf_counter() - started
        counter("conf_groups_total", "Value groups confidence-computed").inc(
            len(groups)
        )
        method_counter = counter(
            "conf_method", "Confidence computations by method actually used"
        )
        if exact:
            method_counter.inc(exact, method="exact")
        if approx:
            method_counter.inc(approx, method="approx")
        histogram("conf_seconds", "Confidence kernel wall time").observe(elapsed)
        frame.summaries[self] = {
            "method": self.method,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "seed": self.seed,
            "groups": len(groups),
            "exact_groups": exact,
            "approx_groups": approx,
            "seconds": elapsed,
        }
        return out

    # -- the two protocols ---------------------------------------------
    def rows(self) -> Iterator[Row]:
        return iter(self._compute(self._grouped_reference()))

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        return _column_chunks(
            self._compute(self._grouped_columns(size)), size, len(self.schema)
        )

    def column_nullable(self, position: int) -> bool:
        if position == len(self.schema) - 1:
            return False  # conf is always a float
        return self.child.column_nullable(2 * self.d_width + self.tid_count + position)

    def explain_label(self) -> str:
        return "Confidence"

    def explain_details(self) -> List[str]:
        details = [
            f"Group Key: {', '.join(self.value_names) or '(none)'}",
            f"Method: {self.method}",
        ]
        if self.method != "exact":
            details.append(
                f"Error Budget: epsilon={self.epsilon}, delta={self.delta}, "
                f"seed={self.seed}"
            )
        return details


def execute(
    plan: PhysicalPlan, mode: str = "columns", batch_size: int = BATCH_SIZE
) -> Relation:
    """Run a physical plan to completion and materialize the result.

    ``mode="columns"`` (the default) runs the executor in batches of at
    most ``batch_size`` rows; ``mode="rows"`` runs the tuple-at-a-time
    reference iterators.  Both produce identical relations.  What the run
    counted replaces what the calling thread's frame held before.
    """
    frame.counters.clear()
    frame.summaries.clear()
    if mode == "rows":
        return Relation(plan.schema, plan.rows())
    if mode != "columns":
        raise ValueError(f"unknown execution mode {mode!r} (use 'rows' or 'columns')")
    rows: List[Row] = []
    extend = rows.extend
    for batch in plan.column_batches(batch_size):
        extend(batch.to_rows())
    return Relation.from_trusted(plan.schema, rows)
