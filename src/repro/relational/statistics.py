"""Cardinality and selectivity estimation.

A deliberately simple, PostgreSQL-flavoured cost model:

* equality against a literal: ``1 / ndistinct`` of the column,
* range predicates against a literal: fraction of the (min, max) interval,
* equi-joins: ``|L| * |R| / max(ndistinct_L, ndistinct_R)``,
* unknown predicates: a fixed default selectivity.

Statistics are computed lazily per relation and kept on it; the write path
hands them on to the relation's next version until enough rows have changed
(:data:`ANALYZE_THRESHOLD`).  The estimates only need to be good enough to
order joins sensibly, which (as the paper reports for PostgreSQL) is what
makes translated U-relation queries run well.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Optional, Tuple

from .expressions import (
    And,
    Between,
    Col,
    Comparison,
    Expression,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    Param,
)
from .relation import Relation

__all__ = [
    "ColumnStats",
    "TableStats",
    "table_stats",
    "selectivity",
    "DEFAULT_SELECTIVITY",
    "use_index_scan",
    "use_index_join",
]

DEFAULT_SELECTIVITY = 0.33
EQUALITY_DEFAULT = 0.05
RANGE_DEFAULT = 0.3

#: An IndexScan wins over a SeqScan when it is expected to fetch at most
#: this fraction of the table.  A range fetch now comes out in relation
#: order, as a scan's does (the key order this gate was set against is
#: gone): the gate trades sorting the range's row positions and one
#: gather per column against slicing every row and running the selection
#: kernel over it.  That crossover is unmeasured; the value is unchanged.
INDEX_SCAN_MAX_SELECTIVITY = 0.3

#: An IndexNestedLoopJoin over an *unfiltered* inner wins over a HashJoin
#: when the outer input is at most this many times the indexed relation:
#: probing a prebuilt index costs one lookup per outer row, while the hash
#: join must scan and re-hash the whole inner side every execution.
INDEX_JOIN_MAX_OUTER_RATIO = 8.0

#: When the inner side carries pushed-down filters, each probe must also
#: evaluate them on the matched rows: with O(outer) probes the filter runs
#: ~outer times instead of ~inner-base times, so the index path stops
#: winning once the outer input outgrows the inner base relation.
INDEX_JOIN_FILTERED_OUTER_RATIO = 1.0


def use_index_scan(estimated_matches: float, table_rows: float) -> bool:
    """Cost gate: is an index scan expected to beat a sequential scan?"""
    if table_rows <= 0:
        return True
    return estimated_matches <= table_rows * INDEX_SCAN_MAX_SELECTIVITY


def use_index_join(
    outer_rows: float, inner_base_rows: float, inner_filtered: bool = False
) -> bool:
    """Cost gate: is probing the inner index expected to beat hash-building?

    ``inner_base_rows`` is the size of the indexed base relation — the
    hash alternative pays a full scan (plus filter and build) of it per
    execution, regardless of how selective the inner filters are.
    """
    ratio = INDEX_JOIN_FILTERED_OUTER_RATIO if inner_filtered else INDEX_JOIN_MAX_OUTER_RATIO
    return outer_rows <= max(inner_base_rows, 1.0) * ratio


#: Number of quantile boundaries kept per column (PostgreSQL keeps 100).
HISTOGRAM_BINS = 128

#: Inherited statistics are recomputed once the rows written since their
#: computation exceed ``ANALYZE_THRESHOLD + ANALYZE_SCALE_FACTOR * rows``
#: (PostgreSQL's autovacuum analyze trigger, with its defaults).
ANALYZE_THRESHOLD = 50
ANALYZE_SCALE_FACTOR = 0.1


class ColumnStats:
    """Distinct count, min/max, and an equi-depth histogram for one column.

    Range estimates interpolate on the histogram (quantiles of a full sort
    of the column), so skewed distributions — TPC-H dates, for example —
    estimate far better than the min/max linear interpolation they fall
    back to when the column is not sortable.
    """

    __slots__ = ("ndistinct", "minimum", "maximum", "null_fraction", "histogram")

    def __init__(self, values) -> None:
        non_null = [v for v in values if v is not None]
        total = max(len(values), 1)
        self.null_fraction = 1.0 - len(non_null) / total
        self.ndistinct = max(len(set(non_null)), 1)
        comparable = [v for v in non_null if _is_orderable(v)]
        self.minimum = min(comparable) if comparable else None
        self.maximum = max(comparable) if comparable else None
        self.histogram: Optional[list] = None
        if len(comparable) >= 2:
            try:
                ordered = sorted(comparable)
            except TypeError:
                ordered = None
            if ordered is not None:
                if len(ordered) > HISTOGRAM_BINS + 1:
                    last = len(ordered) - 1
                    self.histogram = [
                        ordered[(i * last) // HISTOGRAM_BINS]
                        for i in range(HISTOGRAM_BINS + 1)
                    ]
                else:
                    self.histogram = ordered

    def eq_selectivity(self) -> float:
        return 1.0 / self.ndistinct

    def _fraction_below(self, literal: Any, inclusive: bool) -> Optional[float]:
        """Histogram estimate of ``P(value < literal)`` (``<=`` if inclusive)."""
        if self.histogram is not None:
            try:
                cut = (
                    bisect_right(self.histogram, literal)
                    if inclusive
                    else bisect_left(self.histogram, literal)
                )
            except TypeError:
                return None
            return cut / len(self.histogram)
        if self.minimum is None or self.maximum is None:
            return None
        lo, hi = _as_number(self.minimum), _as_number(self.maximum)
        v = _as_number(literal)
        if lo is None or hi is None or v is None or hi <= lo:
            return None
        return min(max((v - lo) / (hi - lo), 0.0), 1.0)

    def range_selectivity(self, op: str, literal: Any) -> float:
        """Estimate the fraction of values satisfying ``col op literal``."""
        frac = self._fraction_below(literal, inclusive=op in ("<=", ">"))
        if frac is None:
            return RANGE_DEFAULT
        if op in ("<", "<="):
            return max(frac, 1e-6)
        if op in (">", ">="):
            return max(1.0 - frac, 1e-6)
        return RANGE_DEFAULT

    def interval_selectivity(self, lower: Any, upper: Any) -> float:
        """Estimate the fraction of values inside ``[lower, upper]``.

        Unlike multiplying the two one-sided selectivities — which treats
        perfectly correlated bounds on the *same* column as independent —
        this estimates the interval's mass directly.  ``None`` bounds are
        open.
        """
        if lower is None and upper is None:
            return 1.0
        if lower is None:
            return self.range_selectivity("<=", upper)
        if upper is None:
            return self.range_selectivity(">=", lower)
        below_upper = self.range_selectivity("<=", upper)
        above_lower = self.range_selectivity(">=", lower)
        return max(below_upper + above_lower - 1.0, 1e-6)


class TableStats:
    """Lazily computed per-column statistics for a relation.

    Holds the relation's schema and row list, not the relation: the
    relation holds its statistics (:func:`table_stats`), and a reference
    back would keep superseded versions alive until a cycle collection.
    """

    def __init__(self, relation: Relation):
        self._schema = relation.schema
        self._rows = relation.rows
        self.row_count = len(relation)
        self._columns: Dict[str, ColumnStats] = {}
        #: Rows that may still be written before the column statistics
        #: count as stale (spent through :meth:`inherited`).
        self._slack = ANALYZE_THRESHOLD + ANALYZE_SCALE_FACTOR * self.row_count

    def column(self, reference: str) -> Optional[ColumnStats]:
        """Stats for one column, or ``None`` if the reference is unknown."""
        if reference in self._columns:
            return self._columns[reference]
        if not self._schema.has(reference):
            return None
        i = self._schema.resolve(reference)
        stats = ColumnStats([row[i] for row in self._rows])
        self._columns[reference] = stats
        return stats

    def inherited(self, relation: Relation, changed: int) -> "TableStats":
        """Statistics for ``relation``, a successor ``changed`` rows away.

        The row count is the successor's own; the column statistics are
        handed on as they are until the writes since their computation
        cross the analyze threshold, and recomputed lazily from then on.
        """
        stats = TableStats(relation)
        if changed <= self._slack:
            stats._columns = dict(self._columns)
            stats._slack = self._slack - changed
        return stats


def table_stats(relation: Relation) -> TableStats:
    """The statistics kept on ``relation``, created on first use."""
    stats = getattr(relation, "_stats", None)
    if stats is None:
        stats = relation._stats = TableStats(relation)
    return stats


def selectivity(
    predicate: Expression, stats: Optional[TableStats] = None
) -> float:
    """Estimated fraction of rows satisfying ``predicate``."""
    if isinstance(predicate, And):
        out = 1.0
        for part in predicate.operands:
            out *= selectivity(part, stats)
        return out
    if isinstance(predicate, Or):
        miss = 1.0
        for part in predicate.operands:
            miss *= 1.0 - selectivity(part, stats)
        return 1.0 - miss
    if isinstance(predicate, Not):
        return max(1.0 - selectivity(predicate.operand, stats), 1e-6)
    if isinstance(predicate, Comparison):
        return _comparison_selectivity(predicate, stats)
    if isinstance(predicate, Between):
        low = Comparison(">=", predicate.operand, predicate.low)
        high = Comparison("<=", predicate.operand, predicate.high)
        return selectivity(low, stats) * selectivity(high, stats)
    if isinstance(predicate, InList):
        base = _column_eq_selectivity(predicate.operand, stats)
        return min(base * max(len(predicate.values), 1), 1.0)
    if isinstance(predicate, IsNull):
        col_stats = _stats_for(predicate.operand, stats)
        if col_stats is not None:
            return max(col_stats.null_fraction, 1e-6)
        return 0.01
    return DEFAULT_SELECTIVITY


def join_cardinality(
    left_rows: float,
    right_rows: float,
    left_stats: Optional[ColumnStats],
    right_stats: Optional[ColumnStats],
) -> float:
    """Estimated output rows of an equi-join."""
    nd_left = left_stats.ndistinct if left_stats else max(left_rows, 1.0)
    nd_right = right_stats.ndistinct if right_stats else max(right_rows, 1.0)
    return left_rows * right_rows / max(nd_left, nd_right, 1.0)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _comparison_selectivity(cmp: Comparison, stats: Optional[TableStats]) -> float:
    column, literal = _column_vs_literal(cmp)
    if column is None:
        if cmp.op == "=":
            return EQUALITY_DEFAULT
        if cmp.op in ("<>", "!="):
            return 1.0 - EQUALITY_DEFAULT
        return RANGE_DEFAULT
    col_stats = stats.column(column.name) if stats else None
    if cmp.op == "=":
        return col_stats.eq_selectivity() if col_stats else EQUALITY_DEFAULT
    if cmp.op in ("<>", "!="):
        base = col_stats.eq_selectivity() if col_stats else EQUALITY_DEFAULT
        return max(1.0 - base, 1e-6)
    if col_stats is not None and literal is not None:
        return col_stats.range_selectivity(cmp.op, literal)
    return RANGE_DEFAULT


def _column_vs_literal(cmp: Comparison) -> Tuple[Optional[Col], Any]:
    """``(column, value)`` of a column-vs-constant comparison, else Nones.

    A ``$n`` slot is a constant whose value is unknown at plan time
    (``None``): equality never reads the value — so ``x = $1`` estimates
    exactly like ``x = 5`` — and a range falls back to ``RANGE_DEFAULT``.
    """
    column, other = cmp.left, cmp.right
    if isinstance(other, Col):
        column, other = other, column
    if isinstance(column, Col) and isinstance(other, (Lit, Param)):
        return column, other.value if isinstance(other, Lit) else None
    return None, None


def _column_eq_selectivity(expr: Expression, stats: Optional[TableStats]) -> float:
    col_stats = _stats_for(expr, stats)
    if col_stats is not None:
        return col_stats.eq_selectivity()
    return EQUALITY_DEFAULT


def _stats_for(expr: Expression, stats: Optional[TableStats]) -> Optional[ColumnStats]:
    if isinstance(expr, Col) and stats is not None:
        return stats.column(expr.name)
    return None


def _is_orderable(value: Any) -> bool:
    return isinstance(value, (int, float, datetime.date)) and not isinstance(value, bool)


def _as_number(value: Any) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    return None
