"""Workload history: per-fingerprint aggregates across requests.

The PR 7 obs layer records *per-request* facts — one trace, one slowlog
entry, per-entry plan-cache feedback.  Nothing aggregates across requests
into a workload shape an advisor could act on.  This module is that
aggregation: a process-wide, lock-guarded, bounded LRU keyed by **query
fingerprint** — the stable identity of a statement with literals and
``$n`` bindings normalized out (:func:`repro.core.translate.query_fingerprint`).
``SELECT ... WHERE x = 5``, ``... WHERE x = 7``, and ``... WHERE x = $1``
all land in one history entry.

Each entry accumulates what was measured: call counts and plan-cache hit
counts, a latency histogram, rows returned, estimate-vs-actual drift, and
the plan's cost class and scanned relations.  :mod:`repro.obs.report`
turns a snapshot of this history into the list of plans whose estimates
drifted.

The store follows the metrics registry's discipline exactly: module-level
singleton, one lock, every recording call short-circuits when
``REPRO_OBS=off`` (see :func:`repro.obs.metrics.enabled`), and a
``reset_workload()`` hook for tests.  The plan's *profile* (fingerprint,
plan key, cost class, relations) is computed once at plan-cache-entry
creation, rides the cached payload and is read only when a fingerprint's
entry is created, so the steady-state recording cost is one lock
acquisition and a handful of integer bumps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .metrics import Histogram, enabled

__all__ = [
    "record_execution",
    "workload_snapshot",
    "reset_workload",
    "configure_workload",
    "WORKLOAD_LIMIT",
]

#: Default bound on distinct fingerprints retained (LRU beyond this).
WORKLOAD_LIMIT = 512

#: Estimate/actual ratio beyond which a run counts as "drifted".
DRIFT_THRESHOLD = 10.0


class _FingerprintEntry:
    """Accumulated history for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "plan_key",
        "sql",
        "cost_class",
        "relations",
        "calls",
        "cached_hits",
        "rows_out",
        "estimated_rows",
        "actual_rows",
        "drift_runs",
        "max_drift",
        "total_seconds",
        "latency",
    )

    def __init__(self, profile: Mapping[str, Any]):
        self.fingerprint: str = profile["fingerprint"]
        self.plan_key: Optional[str] = profile.get("plan_key")
        self.sql: Optional[str] = None
        self.cost_class: str = profile.get("cost_class", "unknown")
        self.relations: Tuple[str, ...] = tuple(profile.get("relations", ()))
        self.calls = 0
        self.cached_hits = 0
        self.rows_out = 0
        self.estimated_rows = 0  # last run
        self.actual_rows = 0  # last run
        self.drift_runs = 0
        self.max_drift = 1.0
        self.total_seconds = 0.0
        self.latency = Histogram(f"workload:{self.fingerprint}")


_lock = threading.Lock()
_entries: "OrderedDict[str, _FingerprintEntry]" = OrderedDict()
_limit = WORKLOAD_LIMIT


def drift_ratio(estimated: float, actual: float) -> float:
    """How far apart an estimate and an actual are, as a >= 1 ratio."""
    high = max(estimated, actual)
    if high <= 0:
        return 1.0
    return high / max(min(estimated, actual), 1)


def record_execution(
    profile: Optional[Mapping[str, Any]],
    *,
    seconds: float,
    rows: int,
    cached: bool,
    estimated: Optional[float] = None,
    actual: Optional[float] = None,
    operators: Iterable[Tuple[float, float]] = (),
    sql: Optional[str] = None,
) -> None:
    """Fold one execution into the history (no-op when obs is off).

    ``profile`` is the plan-time shape built at plan-cache-entry creation
    (see ``translate._workload_profile``); ``None`` — an unfingerprintable
    query — records nothing.  ``estimated`` / ``actual`` are the plan
    root's rows and ``operators`` the same pair for every operator that
    ran: the execution's drift is the largest ratio among them all, since
    a root can be exact above a join that is off by orders of magnitude.
    Iterated only here, past the ``enabled()`` check.
    """
    if not enabled() or not profile:
        return
    fingerprint = profile.get("fingerprint")
    if not fingerprint:
        return
    drift = 1.0
    if estimated is not None and actual is not None:
        drift = drift_ratio(estimated, actual)
        for e, a in operators:  # drift_ratio, inlined: this runs per request
            high, low = (e, a) if e > a else (a, e)
            if low < 1:
                low = 1
            if high > drift * low:
                drift = high / low
    with _lock:
        entry = _entries.get(fingerprint)
        if entry is None:
            entry = _FingerprintEntry(profile)
            _entries[fingerprint] = entry
            while len(_entries) > _limit:
                _entries.popitem(last=False)
        else:
            _entries.move_to_end(fingerprint)
        entry.calls += 1
        if cached:
            entry.cached_hits += 1
        if sql and entry.sql is None:
            entry.sql = sql
        entry.rows_out += rows
        entry.total_seconds += seconds
        if estimated is not None and actual is not None:
            entry.estimated_rows = estimated
            entry.actual_rows = actual
            if drift > entry.max_drift:
                entry.max_drift = drift
            if drift > DRIFT_THRESHOLD:
                entry.drift_runs += 1
    # the per-entry histogram has its own lock; observe outside ours
    entry.latency.observe(seconds)


def _entry_snapshot(entry: _FingerprintEntry) -> Dict[str, Any]:
    p50 = entry.latency.percentile(50)
    p95 = entry.latency.percentile(95)
    return {
        "fingerprint": entry.fingerprint,
        "plan_key": entry.plan_key,
        "sql": entry.sql,
        "cost_class": entry.cost_class,
        "relations": list(entry.relations),
        "calls": entry.calls,
        "cached_hits": entry.cached_hits,
        "rows_out": entry.rows_out,
        "estimated_rows": entry.estimated_rows,
        "actual_rows": entry.actual_rows,
        "drift_runs": entry.drift_runs,
        "max_drift": entry.max_drift,
        "total_ms": entry.total_seconds * 1000.0,
        "mean_ms": (entry.total_seconds / entry.calls) * 1000.0 if entry.calls else 0.0,
        "p50_ms": p50 * 1000.0 if p50 is not None else None,
        "p95_ms": p95 * 1000.0 if p95 is not None else None,
    }


def workload_snapshot(limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """The history as JSON-ready dicts, most-called fingerprints first."""
    with _lock:
        entries = list(_entries.values())
    entries.sort(key=lambda e: (e.calls, e.total_seconds), reverse=True)
    if limit is not None:
        entries = entries[: max(0, int(limit))]
    return [_entry_snapshot(entry) for entry in entries]


def workload_size() -> int:
    """Distinct fingerprints currently retained."""
    with _lock:
        return len(_entries)


def configure_workload(limit: int) -> int:
    """Set the history bound (trimming immediately); returns the previous."""
    global _limit
    with _lock:
        previous = _limit
        _limit = max(1, int(limit))
        while len(_entries) > _limit:
            _entries.popitem(last=False)
    return previous


def reset_workload() -> None:
    """Drop every history entry (tests; mirrors ``reset_metrics``)."""
    with _lock:
        _entries.clear()
