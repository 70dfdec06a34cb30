"""The slow-query log: keep the N slowest traces, warn past a threshold.

Two behaviours, both fed by :func:`record` (called automatically when a
request-owned trace finishes):

* A bounded min-heap of the **N slowest** traces seen since the last
  reset — :func:`slow_queries` returns them slowest-first as
  JSON-shaped dicts (this is what ``{"op": "stats"}`` embeds under
  ``slow_queries``).
* Traces over ``threshold`` seconds additionally emit one structured
  line on the ``repro.obs.slowlog`` logger::

      slow query trace_id=12 duration_ms=153.2 class=join sql="select ..."

The default threshold (100ms) is far above any cached query in this
stack and below a cold multi-way join at bench scale, so the log stays
quiet in tests unless a test lowers it via :func:`configure`.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # the trace module feeds this one
    from .trace import Trace

__all__ = ["record", "slow_queries", "reset_slow_queries", "configure"]

logger = logging.getLogger("repro.obs.slowlog")

DEFAULT_CAPACITY = 32
DEFAULT_THRESHOLD = 0.1  # seconds

_lock = threading.Lock()
_capacity = DEFAULT_CAPACITY
_threshold = DEFAULT_THRESHOLD
# min-heap of (duration, tiebreak, payload) — the fastest of the kept
# traces sits at the root and is evicted first.
_heap: List[Any] = []
_tiebreak = itertools.count()


def configure(capacity: Optional[int] = None, threshold: Optional[float] = None) -> None:
    """Adjust ring size and/or warn threshold (None leaves a value alone)."""
    global _capacity, _threshold
    with _lock:
        if capacity is not None:
            _capacity = max(1, int(capacity))
            while len(_heap) > _capacity:
                heapq.heappop(_heap)
        if threshold is not None:
            _threshold = float(threshold)


def record(trace: "Trace") -> None:
    """Offer a finished trace to the slow log (keep if among N slowest)."""
    seconds = trace.duration
    with _lock:
        threshold = _threshold
        full = len(_heap) >= _capacity
        if not full or seconds > _heap[0][0]:
            # serialized only now that the trace is known to be kept: in a
            # steady state almost every request is faster than the root
            payload: Dict[str, Any] = {
                "duration_ms": round(seconds * 1000, 4),
                **trace.to_dict(),
            }
            push = heapq.heapreplace if full else heapq.heappush
            push(_heap, (seconds, next(_tiebreak), payload))
    if seconds >= threshold:
        attrs = trace.root.attrs
        logger.warning(
            "slow query trace_id=%d duration_ms=%.1f class=%s sql=%r",
            trace.trace_id,
            seconds * 1000,
            attrs.get("cost_class", "unknown"),
            attrs.get("sql", ""),
        )


def slow_queries(limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """The kept traces, slowest first, as JSON-shaped dicts."""
    with _lock:
        entries = sorted(_heap, key=lambda item: item[0], reverse=True)
    if limit is not None:
        entries = entries[:limit]
    return [payload for _, _, payload in entries]


def reset_slow_queries() -> None:
    """Drop kept traces and restore default capacity/threshold."""
    global _capacity, _threshold
    with _lock:
        _heap.clear()
        _capacity = DEFAULT_CAPACITY
        _threshold = DEFAULT_THRESHOLD
