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
* ``NestedLoopJoin`` — general-predicate join (also cross product)
* ``SemiJoinOp``     — left semijoin (hashed on its equi-pairs, if any)
* ``HashDistinct``   — duplicate elimination
* ``Append``         — bag union
* ``Except``         — set difference
* ``Confidence``     — per-value-tuple confidence over a U-relation input

Execution model
---------------
Every operator speaks exactly two protocols:

* ``column_batches(size)`` is the executor (``mode="columns"``, the
  default, and the only path a served request runs).  Operators exchange
  :class:`~repro.relational.columnar.ColumnBatch` values — per-column
  vectors of at most ``size`` (:data:`BATCH_SIZE`, 1024) rows, each a
  ``list`` or a ``tuple`` (what an ``itemgetter`` gather of kept rows
  returns).  Scans slice each segment's cached column vectors,
  filters run one generated loop per batch (the predicate inlined into a
  single comprehension), projections re-select column vectors without
  touching rows, and the two probing equi-joins (``HashJoin``,
  ``IndexNestedLoopJoin``) share one body, :func:`_probe_batches`: a
  generated kernel per join, for a key of any width, that resolves a
  batch's keys against one probe-table shape, key -> row or [rows]
  (:func:`~repro.relational.index.probe_table`: the hash join's build
  side, or the inner index's ``probe_lookup``), checks the residual and
  gathers the output columns from both inputs — a downstream-folded
  projection means dropped columns are never materialized at all.  A
  ``Confidence`` over a probing join runs that join's kernel with a
  grouping emit instead, so the join's output is never gathered either.
  A range ``IndexScan`` gathers its columns from each segment's column
  vectors at the range's row positions, and ``FusedPipeline`` has one
  columnar body over either scan, or slices a literal predicate's cached
  output (predicate caching, below).  Four operators work on row tuples
  because their inputs or algorithms are row-shaped (index buckets hold
  row tuples; nested-loop, semi-join and set difference compare whole
  rows): a point or full ``IndexScan``, ``SemiJoinOp``,
  ``NestedLoopJoin`` and ``Except`` read their children through
  :func:`_row_batches` and emit :meth:`ColumnBatch.from_rows`, which
  transposes (one C-speed ``zip``) only when a consumer reads the
  columns: between two such operators the rows pass through untouched.
* ``rows()`` (``mode="rows"``) is the *reference*: a tuple-at-a-time
  iterator in which every body calls only its children's ``rows()`` and
  *bound* (interpreted, never generated) expressions, so it shares no
  kernel, no batch boundary and — planned with ``use_indexes=False``,
  ``fuse=False``, as ``repro.core.translate.reference_query`` plans it,
  never from the plan cache — no access path with the executor.  It
  exists to be compared against: the tests and the declared benchmark
  check every served answer against it.  It is not meant to be fast.

Every operator implements ``rows()`` and ``_column_batches(size)``, each
with one body per algorithm — no operator chooses between a generated and
a hand-written loop.  The inherited wrapper
:meth:`PhysicalPlan.column_batches` counts the rows and batches each
operator produced — for a fused pipeline per pipeline, not per
fused-away operator.  ``rows()`` keeps no counters.

A plan is a value; an execution is an argument.  Plans are cached and run
by any number of threads at once, so nothing an execution reads or
produces lives on a node: the ``$n`` values, the per-operator ``(rows,
batches)`` counters, the ``conf`` summary and the partition versions a
U-query plan reads belong to the calling thread's frame
(:func:`~repro.relational.expressions.executing`), and ``actual_rows``,
``actual_batches``, :meth:`PhysicalPlan.actuals` and
``Confidence.last_summary`` read that frame — ``None`` for an operator the
thread's current execution did not run.  A cached U-query plan's leaves
hold no relation: each execution resolves their labels in the frame's
catalog (``catalog.versions``) and their indexes by name on those versions
(``plancache.name_slots``).  Outside ``__init__`` /
``set_output`` a node is assigned only plan-only memos, whose values any
execution derives equal: ``FusedPipeline._select`` and the ``_planned``
kernels of the joins and of ``Confidence`` (the plan cache re-plans when
a version's NULL facts differ from those the plan was built on).

Predicate caching: segments are immutable, so whether a row passes a
predicate that reads no ``$n`` never changes while its segment exists.
Such a scan filter (``FusedPipeline`` over a ``SeqScan``) and such probe
filters (``IndexNestedLoopJoin.inner_filters``) are evaluated once per
segment and what they keep is held on the node, keyed weakly by the
segment (``FusedPipeline._kept``, ``IndexNestedLoopJoin._tables``): an
entry lives as long as the shorter of the plan's cache entry and the
segment, a write builds one only for the segment it adds, and an
execution drops its version's dead rows from what the entries hold.
Threads racing on a first use each build an equal entry and the first
one stored stays (``Segment.memo``'s rule).  Everything with ``$n`` runs
per execution.

The planner can additionally *fuse* maximal scan→filter→project chains
into single :class:`FusedPipeline` operators and fold projections into
join emits (``set_output``); see :mod:`repro.relational.planner`.

Operators also expose ``explain_label`` and estimated cardinality for
EXPLAIN output.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from functools import partial
from operator import itemgetter
from typing import AbstractSet, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .columnar import (
    ColumnBatch,
    gather,
    map_kernel,
    probe_kernel,
    row_projector,
    selection_kernel,
)
from .expressions import Expression, Param, frame, has_null_literal, slot_count
from .index import Index, SortedIndex, index_named, probe_table, restricted_probe_table
from .relation import Relation, Segment
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
    "NestedLoopJoin",
    "SemiJoinOp",
    "HashDistinct",
    "Append",
    "Except",
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


def _version(leaf: Any) -> Relation:
    """The relation a leaf reads: its own, or — a slot leaf of a cached
    U-query plan holds none — the version under its label in the frame."""
    relation = leaf.relation
    return frame.catalog.versions[leaf.name] if relation is None else relation


def _resolve(leaf: Any) -> Tuple[Relation, Index]:
    """The relation and index an index leaf reads in this execution."""
    relation = leaf.relation
    if relation is not None:
        return relation, leaf.index
    relation = frame.catalog.versions[leaf.name]
    return relation, index_named(relation, leaf.index)


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


def _kept(segment: Segment, width: int, predicates: Sequence[Tuple[Expression, Schema]]) -> List[int]:
    """The ascending positions of ``segment``'s rows, dead ones included,
    that pass every ``$n``-free ``(predicate, schema it binds against)``
    pair: one NULL-guarded kernel call over its column vectors each."""
    columns = segment.columns(width)
    keep: Optional[List[int]] = None
    for predicate, schema in predicates:
        passed = selection_kernel(predicate, schema)(columns, len(segment.rows))
        keep = passed if keep is None else sorted(set(keep).intersection(passed))
    return keep


def _memoized(memo: weakref.WeakKeyDictionary, segment: Segment, build: Callable, *args: Any) -> Any:
    """``memo[segment]``, set to ``build(segment, *args)`` on first use."""
    value = memo.get(segment)
    if value is None:
        value = memo.setdefault(segment, build(segment, *args))
    return value


def _probe_plan(join: Any, group: Optional[Tuple[int, int]]) -> Tuple:
    """-> (streamed side, generated probe kernel, its NULL-freedom flag)
    of a probing join: its own emit, or with ``group=(dend, vstart)`` the
    grouping emit of a ``Confidence`` reading the join's output ``[:dend]``
    as the encoded descriptor and ``[vstart:]`` as the values.  A function
    of the plan only: callers derive it on the first execution and hold
    it, so a cached plan skips the kernel-cache lookup afterwards."""
    streamed, split, streamed_is_left, keys, filters, fast = join._probe_parts()
    positions = (
        join.output_positions
        if join.output_positions is not None
        else range(len(join._combined))
    )
    width = None
    if group is not None:
        dend, vstart = group
        positions = [*positions[:dend], *positions[vstart:]]
        width = dend // 2
    kernel = probe_kernel(
        join._combined, split, streamed_is_left, keys, join.residual, filters, positions, width
    )
    return streamed, kernel, fast


def _probe_batches(join: Any, size: int) -> Iterator[ColumnBatch]:
    """The executor body of both equi-joins: every batch of the streamed
    side goes through the join's generated probe kernel as column
    vectors, and only the (possibly folded) output columns are ever
    materialized — gathered from those vectors and the rows the join's
    probe table matched."""
    planned = join._planned
    if planned is None:
        planned = join._planned = _probe_plan(join, None)
    streamed, kernel, fast = planned
    lookup = join._lookup(size)
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
        self.estimated_rows = float(len(relation))

    def rows(self) -> Iterator[Row]:
        return iter(_version(self))

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        """Per segment, slices of its column vectors; a batch that holds
        a deleted row gathers the live ones instead."""
        relation = _version(self)
        width = len(relation.schema)
        for segment, dead in relation._runs:
            store = segment.columns(width)
            total = len(segment.rows)
            cut = sorted(dead)
            for s in range(0, total, size):
                e = min(s + size, total)
                if bisect_left(cut, s) == bisect_left(cut, e):
                    yield ColumnBatch([c[s:e] for c in store], e - s)
                    continue
                keep = [p for p in range(s, e) if p not in dead]
                if keep:
                    yield ColumnBatch(gather(store, keep), len(keep))

    def column_nullable(self, position: int) -> bool:
        return _version(self).column_has_null(position)

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

    The executor gathers a range's columns from the segments' column
    vectors at its row positions; point and full scans emit row tuples.

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
        #: weakly: a relational plan keeps the version it was planned over
        #: (a slot leaf keeps none, and an :class:`IndexDef` as ``index``).
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

    def _bounds(self) -> Optional[Tuple[Any, Any, bool, bool]]:
        """The range bounds of this execution, ``None`` if one is NULL.

        ``$n`` bounds resolve per execution, so one cached plan serves
        ``BETWEEN $1 AND $2`` under every binding; a bound resolving to
        NULL matches nothing (SQL comparison semantics).
        """
        lower, upper = self.lower, self.upper
        if isinstance(lower, Param):
            lower = lower.value
            if lower is None:
                return None
        if isinstance(upper, Param):
            upper = upper.value
            if upper is None:
                return None
        return lower, upper, self.lower_inclusive, self.upper_inclusive

    def _matched(self) -> Sequence[Row]:
        if self.probe:
            return ()
        index = _resolve(self)[1]
        if self.point is not _NO_POINT:
            return index.lookup(_resolve_key(self.point))
        if self.lower is None and self.upper is None:
            return index.ordered()  # type: ignore[attr-defined]  # SortedIndex per __init__
        bounds = self._bounds()
        if bounds is None:
            return ()
        return index.range(*bounds)  # type: ignore[attr-defined]  # SortedIndex per __init__

    def rows(self) -> Iterator[Row]:
        residual = self._bound_residual
        if residual is None:
            return iter(self._matched())
        return (row for row in self._matched() if residual(row))

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        if self.lower is not None or self.upper is not None:
            return self._range_batches(size)
        # a point or full scan returns index buckets: row tuples
        matched = self._matched()
        residual = self._compiled_residual
        if residual is not None:
            matched = [row for row in matched if residual(row)]
        return _column_chunks(matched, size, len(self.schema))

    def _range_batches(self, size: int) -> Iterator[ColumnBatch]:
        """A range's row positions, in relation order: per segment, each
        batch gathers its columns from the segment's column vectors, one
        itemgetter per column."""
        bounds = self._bounds()
        if bounds is None:
            return
        index = _resolve(self)[1]
        width = len(self.schema)
        residual = self.residual
        select = selection_kernel(residual, self.schema) if residual is not None else None
        for segment, positions in index.range_runs(*bounds):  # type: ignore[attr-defined]
            store = segment.columns(width)
            for start in range(0, len(positions), size):
                chunk = positions[start : start + size]
                columns = gather(store, chunk)
                count = len(chunk)
                if select is not None:
                    keep = select(columns, count)
                    if not keep:
                        continue
                    if len(keep) < count:
                        columns, count = gather(columns, keep), len(keep)
                yield ColumnBatch(columns, count)

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
        return _version(self).column_has_null(position)


class FusedPipeline(PhysicalPlan):
    """A fused scan→filter→project pipeline in one generated loop.

    The planner's fusion pass collapses each maximal chain of
    ``Projection``/``ProjectionAs`` over ``Filter`` (through pass-through
    renames) over a base access (``SeqScan`` or ``IndexScan``) into one of
    these.  ``predicate`` is re-anchored to the source's schema (renames
    never move columns, so positions are stable) and ``positions`` are the
    output columns as source positions; either may be ``None``.

    Over either scan the predicate runs as a vector kernel over the
    source's column batches and only the output columns are gathered, so
    dropped columns are never materialized.
    Over a ``SeqScan`` with a predicate that reads no ``$n``, an
    execution slices the output columns the node keeps per segment
    (predicate caching, in the module docstring) and does not run the
    scan, which counts the live rows the cache answered for, in no
    batches.
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
        #: Over a ``SeqScan`` with a ``$n``-free predicate: segment ->
        #: (the positions it keeps, the output columns gathered at them).
        self._kept: Optional[weakref.WeakKeyDictionary] = (
            weakref.WeakKeyDictionary()
            if predicate is not None and isinstance(source, SeqScan) and not slot_count(predicate)
            else None
        )

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
            source = self.source
            assume = not has_null_literal(self.predicate) and not any(
                source.column_nullable(source.schema.resolve(name))
                for name in self.predicate.columns()
            )
            select = self._select = selection_kernel(
                self.predicate, self.source.schema, assume_non_null=assume
            )
        return select

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        if self._kept is not None:
            return self._cached_batches(size)
        return self._filtered_batches(size)

    def _cached_batches(self, size: int) -> Iterator[ColumnBatch]:
        scan = self.source
        relation = _version(scan)
        width = len(relation.schema)
        served = 0
        for segment, dead in relation._runs:
            keep, columns = _memoized(self._kept, segment, self._kept_columns, width)
            served += len(segment.rows) - len(dead)
            count = len(keep)
            if dead:
                live = [i for i, p in enumerate(keep) if p not in dead]
                if live and len(live) < count:
                    columns = gather(columns, live)
                count = len(live)
            for s in range(0, count, size):
                yield ColumnBatch([c[s : s + size] for c in columns], min(size, count - s))
        frame.counters[scan] = (served, 0)

    def _kept_columns(self, segment: Segment, width: int) -> Tuple[List[int], List[Sequence[Any]]]:
        store = segment.columns(width)
        keep = _kept(segment, width, [(self.predicate, self.source.schema)])
        wanted = store if self.positions is None else [store[p] for p in self.positions]
        if len(keep) == len(segment.rows) or not keep:
            return keep, wanted  # everything passed (or nothing): no copy
        return keep, gather(wanted, keep)

    def _filtered_batches(self, size: int) -> Iterator[ColumnBatch]:
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
            yield ColumnBatch(wanted if keep is None else gather(wanted, keep), kept)

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
                yield ColumnBatch(gather(batch.columns, keep), len(keep))

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

    def _build_table(self, size: int) -> Dict[Any, Any]:
        """Hash the build side into a :func:`~repro.relational.index.probe_table`
        (NULL keys excluded, as NULLs never join).

        Keys come straight off the build side's column vectors and the
        rows from one C-speed transpose per batch.
        """
        single = len(self.pairs) == 1
        build_plan, build_positions = (
            (self.left, self.left_positions)
            if self.build == "left"
            else (self.right, self.right_positions)
        )

        def entries() -> Iterator[Tuple[Any, Row]]:
            for cb in build_plan.column_batches(size):
                if single:
                    keys: Any = cb.columns[build_positions[0]]
                else:
                    keys = zip(*(cb.columns[p] for p in build_positions))
                for key, row in zip(keys, cb.to_rows()):
                    if not _key_is_null(key, single):
                        yield key, row

        return probe_table(entries())

    def _probe_parts(self) -> Tuple:
        """-> (probe side, split, probe side is left, its key positions,
        row-side filters, NULL-freedom flag) for :func:`_probe_plan`."""
        probe_is_left = self.build == "right"
        probe_plan, build_plan = (
            (self.left, self.right) if probe_is_left else (self.right, self.left)
        )
        split = len(self.left.schema)
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
        keys = self.left_positions if probe_is_left else self.right_positions
        return probe_plan, split, probe_is_left, keys, (), fast

    def _lookup(self, size: int) -> Callable:
        return self._build_table(size).get

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        return _probe_batches(self, size)

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
    on the few matched rows instead of the whole table).  Filters without
    ``$n`` are not run per match: the join (and a ``Confidence`` grouped
    in it) probes the inner segments' tables restricted to the rows that
    pass them (predicate caching, in the module docstring).
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
        #: The probed partition's label (the inner probe scan's name).
        self.name = getattr(inner, "name", None)
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
        #: With ``$n``-free inner filters: inner segment -> its
        #: :func:`~repro.relational.index.restricted_probe_table`.
        self._tables: Optional[weakref.WeakKeyDictionary] = (
            weakref.WeakKeyDictionary()
            if self.inner_filters and not any(slot_count(e) for e, _ in self.inner_filters)
            else None
        )
        self.estimated_rows = max(outer.estimated_rows, inner.estimated_rows)

    def set_output(self, positions: Sequence[int], schema: Schema) -> None:
        """Fold a downstream projection into the join's emit (fusion)."""
        self.output_positions = list(positions)
        self.schema = schema
        self._planned = None

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.outer, self.inner)

    def _probe(self, index: Index, key: Any) -> Sequence[Row]:
        """Matched inner rows for a key, after the inner-side filters."""
        bucket = index.lookup(key)
        filters = self._bound_filters
        if not bucket or not filters:
            return bucket
        return [row for row in bucket if all(f(row) for f in filters)]

    def rows(self) -> Iterator[Row]:
        single = len(self.outer_positions) == 1
        key = _keyer(self.outer_positions)
        probe = partial(self._probe, _resolve(self)[1])
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

    def _probe_parts(self) -> Tuple:
        """-> (outer side, split, outer side is left, its key positions,
        inner filters, NULL-freedom flag) for :func:`_probe_plan`.

        Everything the probe loop reads — schemas, residual,
        ``output_positions``, the index and its relation's NULL facts — is
        fixed once planning ends and never depends on ``$n`` bindings
        (three joins per point lookup made re-deriving it the dominant
        cost).
        """
        outer_is_left = not self.flipped
        split = len(self.inner.schema) if self.flipped else len(self.outer.schema)
        # every column the conditions reference must be provably NULL-free
        # for the kernel's guard-free body: inner refs consult the indexed
        # base relation's cached nullability, outer refs the plan tree
        inner_refs: set = set()
        outer_refs: set = set()
        filters = self.inner_filters if self._tables is None else ()
        for expr, schema in filters:
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
        relation = _version(self)
        fast = not any(
            relation.column_has_null(q) for q in inner_refs
        ) and not any(self.outer.column_nullable(q) for q in outer_refs)
        return self.outer, split, outer_is_left, self.outer_positions, filters, fast

    def _lookup(self, size: int) -> Callable:
        relation, index = _resolve(self)
        tables = self._tables
        if tables is None:
            return index.probe_lookup()
        width, positions = len(relation.schema), index.positions
        return index.probe_lookup(
            lambda segment: _memoized(tables, segment, self._restricted, width, positions)
        )

    def _restricted(self, segment: Segment, width: int, positions: Tuple[int, ...]) -> Tuple:
        return restricted_probe_table(segment, positions, _kept(segment, width, self.inner_filters))

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        return _probe_batches(self, size)

    def column_nullable(self, position: int) -> bool:
        if self.output_positions is not None:
            position = self.output_positions[position]
        split = len(self.inner.schema) if self.flipped else len(self.outer.schema)
        on_left = position < split
        local = position if on_left else position - split
        if on_left == (not self.flipped):
            return self.outer.column_nullable(local)
        return _version(self).column_has_null(local)

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
    :class:`~repro.core.probability.ConfidenceEngine`, which looks a group
    up by those encoded prefixes and decodes them only on a miss.  A
    cached U-query plan's ``world_table`` is ``None``: the execution's
    catalog holds it (``frame.catalog``), as it holds the leaves'
    versions.  Over a probing join the grouping runs in the join's kernel
    (``_planned``).
    A row whose every ``c`` column is the trivial variable (⊤, the empty
    descriptor) is in every world, so its group's confidence is exactly 1
    whatever else the group holds: the group becomes the shared set
    ``{⊤}``, which the engine answers 1.0 ``exact``, and stops growing.
    ``rows()``, the reference, groups every row.

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
        from ..core.descriptor import TOP_VALUE, TOP_VARIABLE

        #: The one descriptor set of every certain group.
        self._top = frozenset({(TOP_VARIABLE, TOP_VALUE) * self.d_width})
        self._planned: Optional[Tuple] = None  # the folded grouping kernel

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

    def _grouped_columns(self, size: int) -> Dict[Row, AbstractSet]:
        """Native columnar grouping: zip only the needed column slices; a
        certain row's group becomes ``_top`` and stops growing."""
        dend = 2 * self.d_width
        vstart = dend + self.tid_count
        top = self._top
        tops = next(iter(top))[::2]  # the c columns of a ⊤ encoding
        groups: Dict[Row, AbstractSet] = {}
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
                if group is top:
                    continue
                if enc[::2] == tops:
                    groups[values] = top
                elif group is None:
                    groups[values] = {enc}
                else:
                    group.add(enc)
        return groups

    def _grouped_in_join(self, size: int) -> Dict[Row, AbstractSet]:
        """The same grouping, run inside the probing join below: its kernel
        adds every match to the groups directly.  The join's rows and
        batches are recorded as its own iterator records them."""
        join = self.child
        planned = self._planned
        if planned is None:
            dend = 2 * self.d_width
            planned = self._planned = _probe_plan(join, (dend, dend + self.tid_count))
        streamed, kernel, fast = planned
        lookup = join._lookup(size)
        top = self._top
        groups: Dict[Row, AbstractSet] = {}
        rows = batches = 0
        for cb in streamed.column_batches(size):
            count = kernel(lookup, cb.columns, fast, groups, top)
            if count:
                rows += count
                batches += 1
        frame.counters[join] = (rows, batches)
        return groups

    # -- confidence computation ----------------------------------------
    def _compute(self, groups: Dict[Row, AbstractSet]) -> List[Row]:
        import time

        from ..core.probability import confidence_engine
        from ..obs import counter, histogram

        started = time.perf_counter()
        world = self.world_table
        if world is None:
            world = frame.catalog.world_table
        confidences, approx = confidence_engine(world).encoded_confidences(
            groups.values(), self.method, self.epsilon, self.delta, self.seed
        )
        exact = len(groups) - approx
        out = [values + (conf,) for values, conf in zip(groups, confidences)]
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
        if isinstance(self.child, (HashJoin, IndexNestedLoopJoin)):
            groups = self._grouped_in_join(size)
        else:
            groups = self._grouped_columns(size)
        return _column_chunks(self._compute(groups), size, len(self.schema))

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
