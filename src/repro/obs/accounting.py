"""Resource accounting: who spent what, by session and by cost class.

The metrics registry answers "how is the *server* doing"; this module
answers "who is spending the resources".  Two lock-guarded, process-wide
tallies, both following the registry's discipline (singleton, one lock,
``REPRO_OBS=off`` short-circuits recording, a reset hook):

* **per cost class** — queries, rows returned, bytes rendered, queue
  (admission-wait) seconds, and execution seconds, keyed by the admission
  cost class (``point``/``scan``/``join``/``heavy``/``conf``/``cold``/
  ``dml``/...), and
* **per session** — the same counters keyed by a small integer id handed
  out at session creation (:func:`register_session`), bounded LRU so a
  server that churns connections never grows without bound.

Recording sites: a request's trace collects its statements (rows,
execution time; :meth:`repro.server.session.Session._run`) and the bytes
the server's render path wrote, and its finish step records them with
:func:`record_request`, one lock for the whole request;
:meth:`repro.server.admission.AdmissionController.admit` records queue
waits (class-level — a request waits before it has run anything).
Surfaced as the ``accounting`` key of ``QueryServer.stats()``.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from . import metrics as _metrics

__all__ = [
    "register_session",
    "record_request",
    "record_wait",
    "accounting_snapshot",
    "reset_accounting",
    "SESSION_LIMIT",
]

#: Sessions retained in the per-session tally (LRU beyond this).
SESSION_LIMIT = 256


class _Tally:
    __slots__ = ("queries", "rows", "bytes_rendered", "queue_seconds", "execute_seconds")

    def __init__(self) -> None:
        self.queries = 0
        self.rows = 0
        self.bytes_rendered = 0
        self.queue_seconds = 0.0
        self.execute_seconds = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "queries": self.queries,
            "rows": self.rows,
            "bytes_rendered": self.bytes_rendered,
            "queue_ms": self.queue_seconds * 1000.0,
            "execute_ms": self.execute_seconds * 1000.0,
        }


_lock = threading.Lock()
_by_class: Dict[str, _Tally] = {}
_sessions: "OrderedDict[int, _Tally]" = OrderedDict()
_session_ids = itertools.count(1)


def register_session() -> int:
    """A fresh accounting id for one session (cheap; works even when off)."""
    return next(_session_ids)


def _session_tally(session_id: Optional[int]) -> Optional[_Tally]:
    # caller holds _lock
    if session_id is None:
        return None
    tally = _sessions.get(session_id)
    if tally is None:
        tally = _sessions[session_id] = _Tally()
        while len(_sessions) > SESSION_LIMIT:
            _sessions.popitem(last=False)
    else:
        _sessions.move_to_end(session_id)
    return tally


def _class_tally(cost_class: Optional[str]) -> _Tally:
    # caller holds _lock
    # "cold" mirrors the plan cache's label for un-classified entries
    name = cost_class or "cold"
    tally = _by_class.get(name)
    if tally is None:
        tally = _by_class[name] = _Tally()
    return tally


def record_request(
    session_id: Optional[int],
    cost_class: Optional[str],
    statements: int = 0,
    rows: int = 0,
    seconds: float = 0.0,
    nbytes: int = 0,
) -> None:
    """One request's finished statements (queries, rows, execution time)
    and the bytes serialized onto the wire for it."""
    if not _metrics._enabled:
        return
    with _lock:
        for tally in (_class_tally(cost_class), _session_tally(session_id)):
            if tally is None:
                continue
            tally.queries += statements
            tally.rows += rows
            tally.execute_seconds += seconds
            tally.bytes_rendered += nbytes


def record_wait(cost_class: Optional[str], seconds: float) -> None:
    """Admission-queue wait (class-level; waits precede session work)."""
    if not _metrics._enabled:
        return
    with _lock:
        _class_tally(cost_class).queue_seconds += seconds


def accounting_snapshot() -> Dict[str, Any]:
    """JSON-ready ``{"by_class": {...}, "sessions": {id: {...}}}``."""
    with _lock:
        return {
            "by_class": {
                name: tally.snapshot() for name, tally in sorted(_by_class.items())
            },
            "sessions": {
                session_id: tally.snapshot()
                for session_id, tally in _sessions.items()
            },
        }


def reset_accounting() -> None:
    """Drop every tally (tests; mirrors ``reset_metrics``)."""
    with _lock:
        _by_class.clear()
        _sessions.clear()
