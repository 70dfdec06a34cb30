"""Query-lifecycle tracing: per-request span trees.

A :class:`Trace` is one request's journey through the serving stack; a
:class:`Span` is one timed step.  The canonical tree for a served SQL
query::

    query                       (root; attrs: sql, cost_class, cached)
      parse                     (attrs: cached — statement-text cache hit?)
      admission                 (attrs: cost_class, queued — wait only)
      execute                   (attrs: coalesced?)
        plan                    (attrs: cached — plan-cache hit?)
                                (attrs: operators — per-operator actual rows)
      render                    (attrs: bytes)

Propagation is a :mod:`contextvars` context variable holding
``(trace, active_span)``.  Context vars do **not** flow into
``ThreadPoolExecutor`` workers automatically, so the executor boundary
captures the pair in the request thread and re-installs it in the worker
via :func:`activate`.

Instrumentation sites never check "is tracing on?" — they call
:func:`span`, which returns a shared no-op span when no trace is active,
so the disabled cost is one contextvar read.  Entry surfaces
(``execute_sql``, ``Session``, ``PreparedQuery.run``, the TCP handler)
call :func:`request_trace`, which starts a trace only when observability
is enabled and none is already active — nested calls join the enclosing
trace for one contextvar read instead of forking their own.

Every request is traced, so a trace costs a small constant: spans and
traces are their own context managers, a span nothing runs inside is
finished without becoming the active one, and ``operators`` is built
when read (:class:`Operators`).  A trace collects its executions'
history and its session's accounting, and its one finish step
(:func:`record_finished`) records them with the ``query_seconds``
histogram and the slow-query log (:mod:`repro.obs.slowlog`).
"""

from __future__ import annotations

import contextvars
import itertools
import time
from collections.abc import Mapping
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import accounting as _accounting
from . import metrics as _metrics
from . import slowlog as _slowlog
from . import workload as _workload

__all__ = [
    "Span",
    "Trace",
    "Operators",
    "start_trace",
    "activate",
    "span",
    "current_trace",
    "current_span",
    "request_trace",
    "record_finished",
]

_trace_ids = itertools.count(1)
_clock = time.perf_counter

#: (trace, active span) for the current logical context; None outside any
#: traced request.
_current: "contextvars.ContextVar[Optional[Tuple[Trace, Span]]]" = contextvars.ContextVar(
    "repro_obs_trace", default=None
)

_QUERY_SECONDS = _metrics.histogram(
    "query_seconds", "End-to-end latency of traced requests"
)
#: cost class -> its ``query_seconds`` series' observe
_query_seconds: Dict[str, Callable[[float], None]] = {}


class Span:
    """One timed step of a trace, possibly with children and attributes.

    A span returned by :func:`span` is already in its parent's children;
    ``with`` makes it the active span until it finishes, and a step that
    runs nothing traced inside it just calls :meth:`finish`.
    """

    __slots__ = ("name", "start", "end", "attrs", "children", "_token")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.start = _clock()
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {} if attrs is None else attrs
        self.children: List[Span] = []

    def __enter__(self) -> "Span":
        # entered where it was made: the active pair names its trace
        self._token = _current.set((_current.get()[0], self))
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.end is None:
            self.end = _clock()
        _current.reset(self._token)
        # the token holds the parent's state: kept, the tree would be a cycle
        self._token = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (to now if the span is still open)."""
        return (self.end if self.end is not None else _clock()) - self.start

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        if self.end is None:
            self.end = _clock()

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant (or self) named `name`."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration * 1000, 4),
        }
        if self.attrs:
            out["attrs"] = {
                key: dict(value) if isinstance(value, Operators) else value
                for key, value in self.attrs.items()
            }
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _NoopSpan(Span):
    """Shared do-nothing span returned when no trace is active.

    Mutations are swallowed so instrumentation sites can unconditionally
    ``span.set(...)`` without branching on trace presence.
    """

    __slots__ = ()

    def __init__(self):  # noqa: D107 - fixed identity, no timing
        object.__setattr__(self, "name", "noop")
        object.__setattr__(self, "start", 0.0)
        object.__setattr__(self, "end", 0.0)
        object.__setattr__(self, "attrs", {})
        object.__setattr__(self, "children", [])

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def set(self, **attrs: Any) -> "Span":
        return self

    def finish(self) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Operators(Mapping):
    """A span's ``operators`` attribute: the per-operator actuals
    (:meth:`~repro.relational.physical.PhysicalPlan.actuals`) that
    ``build()`` makes from a copy of the execution's counters, on the
    first read, so no frame outlives its execution."""

    __slots__ = ("_build", "_tree")

    def __init__(self, build: Callable[[], Dict[str, Any]]):
        self._build = build

    def _value(self) -> Dict[str, Any]:
        if self._build is not None:
            self._tree, self._build = self._build(), None
        return self._tree

    def __getitem__(self, key: str) -> Any:
        return self._value()[key]

    def __iter__(self):
        return iter(self._value())

    def __len__(self) -> int:
        return len(self._value())


class Trace:
    """A request's span tree plus identity metadata, and what its finish
    step records: ``executions`` (:func:`repro.obs.workload.record_execution`'s
    arguments but ``sql``) and its session's accounting.  ``with trace:``
    makes the root the active span."""

    __slots__ = ("trace_id", "root", "executions", "session", "statements", "rows", "seconds",
                 "rendered", "_token", "_owned")

    def __init__(self, root_name: str = "query", attrs: Optional[Dict[str, Any]] = None):
        self.trace_id = next(_trace_ids)
        self.root = Span(root_name, attrs)
        self.executions: List[Tuple] = []
        self.session, self.statements, self.rows, self.seconds, self.rendered = None, 0, 0, 0.0, 0
        self._owned = False

    def __enter__(self) -> "Trace":
        self._token = _current.set((self, self.root))
        return self

    def __exit__(self, *exc: Any) -> None:
        self.root.finish()
        _current.reset(self._token)
        self._token = None
        if self._owned:
            record_finished(self)
        else:
            _record_usage(self)

    @property
    def duration(self) -> float:
        return self.root.duration

    def find(self, name: str) -> Optional[Span]:
        return self.root.find(name)

    def account(self, session: Optional[int], statements=0, rows=0, seconds=0.0, nbytes=0) -> None:
        """Charge ``session``'s finished statements, or the bytes rendered
        for it, to this request (one session per request)."""
        self.session = session
        self.statements += statements
        self.rows += rows
        self.seconds += seconds
        self.rendered += nbytes

    def to_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, **self.root.to_dict()}


#: What a call that traces nothing returns: ``with`` it yields ``None``.
_UNTRACED = nullcontext()


class activate:
    """Re-install a (trace, span) pair in this thread's context.

    The worker-pool bridge: the request thread captures
    ``(current_trace(), current_span())`` into the work closure, and the
    pool thread wraps execution in ``activate`` so plan/operator spans
    land under the request's execute span.
    """

    __slots__ = ("_state", "_token")

    def __init__(self, trace: Trace, parent: Span):
        self._state = (trace, parent)

    def __enter__(self) -> Span:
        self._token = _current.set(self._state)
        return self._state[1]

    def __exit__(self, *exc: Any) -> None:
        _current.reset(self._token)


def current_trace() -> Optional[Trace]:
    state = _current.get()
    return state[0] if state is not None else None


def current_span() -> Span:
    """The active span, or the shared no-op span outside any trace."""
    state = _current.get()
    return state[1] if state is not None else NOOP_SPAN


def start_trace(root_name: str = "query", force: bool = False):
    """A fresh trace whose root becomes the active span, in ``with``.

    Yields None (tracing nothing) when observability is disabled, unless
    ``force=True`` — explicit ``{"op": "trace"}`` requests trace even
    under ``REPRO_OBS=off`` because the caller asked for it.
    """
    if not force and not _metrics.enabled():
        return _UNTRACED
    return Trace(root_name)


def span(name: str, **attrs: Any) -> Span:
    """A child span of the active one (the no-op span outside a trace)."""
    state = _current.get()
    if state is None:
        return NOOP_SPAN
    child = Span(name, attrs)
    state[1].children.append(child)
    return child


def request_trace(root_name: str = "query", **attrs: Any):
    """Trace this request unless one is already active (then join it).

    The entry-surface helper: `execute_sql`, `Session.execute`,
    `PreparedQuery.run`, and the TCP handler all pass through here, and
    only the outermost one owns the trace.  On close, the owned trace is
    recorded (:func:`record_finished`).
    """
    if _current.get() is not None or not _metrics.enabled():
        return _UNTRACED
    trace = Trace(root_name, attrs)
    trace._owned = True
    return trace


def record_finished(trace: Trace) -> None:
    """The request's finish step: ``query_seconds``, the workload history,
    the accounting and the slow-query log.  Request-owned traces get it on
    close; explicit ``{"op": "trace"}`` requests call it directly."""
    if _metrics._enabled:
        cost_class = trace.root.attrs.get("cost_class", "unknown")
        observe = _query_seconds.get(cost_class) or _query_seconds.setdefault(
            cost_class, _QUERY_SECONDS.labels(cls=cost_class)
        )
        observe(trace.duration)
    _record_usage(trace)
    _slowlog.record(trace)


def _record_usage(trace: Trace) -> None:
    """Feed the history and the accounting what the trace collected, once."""
    executions, trace.executions = trace.executions, []
    if not _metrics._enabled:
        return
    attrs = trace.root.attrs
    for execution in executions:
        _workload.record_execution(*execution, attrs.get("sql"))
    if trace.statements or trace.rendered:
        _accounting.record_request(
            trace.session, attrs.get("cost_class"), trace.statements, trace.rows, trace.seconds,
            trace.rendered,
        )
        trace.statements, trace.rows, trace.seconds, trace.rendered = 0, 0, 0.0, 0
