"""The traced run: in-process spans around the calls into each layer.

Spans are recorded from here, outside the program, around its public
entry points (in-program spans are a later change).  Every traced
request is timed twice, under two root spans that share a request id:

* **stacked** - a ``request`` span around ``server.session``
  (``Session.execute_prepared`` or ``Session.execute``), ``server.render``
  (``QueryServer.render_result``) and ``client.decode`` (``json.loads``),
  per statement;
* **replayed** - a ``replay`` span around the same statement layer by
  layer: ``sql.lex``, ``sql.parse``, ``core.translate``,
  ``relational.optimizer``, ``relational.planner``,
  ``relational.plancache.lookup``, ``relational.physical`` for a query;
  ``core.dml`` for a write (the request's shadow, on disjoint ids);
  ``core.txn`` and ``core.txn.commit`` for a transaction.

A cycle's requests all run stacked first and are replayed afterwards, so
that the stacked loop is the served loop, undisturbed by planning work
between two requests.

Spans stay in memory as ``[name, start_ns, end_ns, parent, request_id,
attrs]`` and are dumped when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

from layer_workloads import Request, Statement, statement_kind

_now = time.perf_counter_ns

#: Replayed layers a query runs only when its plan is not cached.
PLANNING_LAYERS = ("core.translate", "relational.optimizer", "relational.planner")


class _Span:
    """Context manager of one recorded span."""

    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "Recorder", index: int):
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> Dict[str, Any]:
        return self.recorder.spans[self.index][5]

    def __exit__(self, *exc: Any) -> None:
        recorder = self.recorder
        recorder.spans[self.index][2] = _now()
        recorder.stack.pop()


class Recorder:
    """Keeps spans in memory; ``span()`` nests under the open span."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request_id = -1

    def span(self, name: str, **attrs: Any) -> _Span:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(index)
        self.spans.append([name, _now(), None, parent, self.request_id, attrs])
        return _Span(self, index)

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request_id", "attrs")
        with open(path, "w") as out:
            json.dump(
                [dict(zip(keys, span), id=i) for i, span in enumerate(self.spans)],
                out,
                default=str,
            )


class _NullSpan:
    def __enter__(self) -> Dict[str, Any]:
        return {}

    def __exit__(self, *exc: Any) -> None:
        pass


class NullRecorder:
    """The untraced side of the tracing-overhead comparison."""

    request_id = -1
    _span = _NullSpan()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return self._span


def session_ask(server, session) -> Callable[[Statement], dict]:
    """``ask(statement) -> payload`` through a session, as the wire would."""

    def ask(statement: Statement) -> dict:
        result = session.execute(statement.sql, statement.params)
        return json.loads(server.render_result(result))

    return ask


# ----------------------------------------------------------------------
# replay, layer by layer
# ----------------------------------------------------------------------
def _count_joins(plan) -> int:
    from repro.relational.algebra import Join

    return isinstance(plan, Join) + sum(_count_joins(child) for child in plan.children)


def _leaf_rows(actuals: dict) -> int:
    if not actuals["children"]:
        return actuals["actual_rows"] or 0
    return sum(_leaf_rows(child) for child in actuals["children"])


def replay_query(recorder: Recorder, udb, statement: Statement) -> None:
    """One query through the layers ``Session`` would run on a cold plan.

    The glue between the layers (``Distinct(Project(...))`` for
    ``possible``, ``ConfCompute`` above the optimized child for ``conf``)
    follows ``repro.core.translate``'s cached-plan path.
    """
    from repro.core import Conf, Poss, PreparedQuery, translate
    from repro.core.translate import query_cache_key
    from repro.relational import execute, optimize, plan_physical
    from repro.relational.algebra import ConfCompute, Distinct, Project
    from repro.relational.plancache import cache_lookup
    from repro.sql import parse, tokenize

    with recorder.span("sql.lex"):
        tokenize(statement.sql)
    with recorder.span("sql.parse"):  # lexes again: parse_ms is this minus sql.lex
        query = parse(statement.sql)
    if not isinstance(query, (Poss, Conf)):
        raise ValueError(f"replay handles possible/conf queries, got {statement.sql!r}")
    PreparedQuery(query, udb).bind(tuple(statement.params))
    with recorder.span("core.translate") as attrs:
        inner = translate(query.child, udb)
        attrs["joins"] = _count_joins(inner.plan)
    plan = inner.plan
    if isinstance(query, Poss):
        plan = Distinct(Project(plan, list(inner.value_names)))
    with recorder.span("relational.optimizer"):
        plan = optimize(plan)
    if isinstance(query, Conf):
        plan = ConfCompute(
            plan,
            inner.d_width,
            len(inner.tid_names),
            list(inner.value_names),
            udb.world_table,
            query.method,
            query.epsilon,
            query.delta,
            query.seed,
        )
    with recorder.span("relational.planner"):
        physical = plan_physical(plan, use_indexes=True, fuse=True)
    with recorder.span("relational.plancache.lookup"):
        cache_lookup(query_cache_key(query, udb))
    with recorder.span("relational.physical") as attrs:
        relation = execute(physical, mode="columns")
        actuals = physical.actuals()
    attrs["rows_out"] = len(relation.rows)
    attrs["rows_scanned"] = _leaf_rows(actuals)
    summary = getattr(physical, "last_summary", None)
    if summary is not None:  # a conf plan: its probability time is inside execute
        attrs["conf_s"] = summary["seconds"]


def replay_request(recorder: Recorder, udb, request: Request, request_id: int) -> None:
    """Replay one request below the session layer (see module docstring).

    The ``replay`` span carries the id of the request it replays.
    """
    from repro.server import Session
    from repro.sql import prepare

    kinds = [statement_kind(s.sql) for s in request.statements]
    recorder.request_id = request_id
    with recorder.span("replay", op=request.op):
        if kinds == ["query"]:
            replay_query(recorder, udb, request.statements[0])
        elif request.shadow is None:  # VACUUM: compacting twice would time a no-op
            return
        elif "txn" in kinds:
            session = Session(udb)
            with recorder.span("core.txn"):
                for statement in request.shadow.statements[:-1]:
                    session.execute(statement.sql, statement.params)
                with recorder.span("core.txn.commit"):
                    result = session.execute(request.shadow.statements[-1].sql)
            committed = {"ok": True, "txn": {"status": result.status}}
            request.shadow.check([{"ok": True}] * (len(kinds) - 1) + [committed], [])
        else:
            statement = request.shadow.statements[0]
            with recorder.span("core.dml"):
                result = prepare(statement.sql, udb).run(*statement.params)
            request.shadow.check([{"ok": True, "count": result.count}], [])


def run_stacked(recorder, served, session, request: Request, phase: str) -> int:
    """Run one request through session, render and decode; returns the ns.

    The time is clocked here, outside the recorder, so that the recorded
    and the unrecorded cycles of the overhead comparison are timed the
    same way.  Raises if the answer fails the request's check.
    """
    from repro.relational import plan_cache_stats

    recorder.request_id += 1
    payloads: List[dict] = []
    lines: List[bytes] = []
    stacked_ns = 0
    misses_before = plan_cache_stats()["misses"]
    with recorder.span("request", op=request.op, phase=phase) as request_attrs:
        for statement in request.statements:
            started = _now()
            with recorder.span("server.session"):
                if statement.name is not None:
                    result = session.execute_prepared(statement.name, *statement.params)
                else:
                    result = session.execute(statement.sql, statement.params)
            with recorder.span("server.render") as attrs:
                line = served.server.render_result(result)
                attrs["bytes"] = len(line)
            with recorder.span("client.decode"):
                payload = json.loads(line)
            stacked_ns += _now() - started
            payloads.append(payload)
            lines.append(line)
        # which replayed layers this request really ran: planning only on
        # a plan-cache miss, parsing only for a text sent with the query op
        request_attrs["plan_misses"] = plan_cache_stats()["misses"] - misses_before
        request_attrs["adhoc"] = request.statements[0].name is None
        if "conf" in payloads[-1]:
            request_attrs["conf_s"] = payloads[-1]["conf"]["seconds"]
            request_attrs["groups"] = payloads[-1]["conf"]["groups"]
            request_attrs["approx_groups"] = payloads[-1]["conf"]["approx_groups"]
        if "vacuum" in payloads[-1]:
            request_attrs["compact_s"] = payloads[-1]["vacuum"]["seconds"]
    if not request.check(payloads, lines):
        raise AssertionError(f"traced {request.op} answered wrongly: {lines[-1][:200]!r}")
    return stacked_ns


# ----------------------------------------------------------------------
# reading the spans back
# ----------------------------------------------------------------------
class SpanTable:
    """Spans grouped per request, for the metric computations.

    ``requests`` lists, per traced request of ``phase`` (every phase when
    ``None``): its ``op``, the request span's ``attrs``, the time per span
    name in ``layers`` (ms, summed over the request's statements) and the
    child spans' attributes merged into ``detail``.  ``durations(name,
    op)`` lists single span durations.
    """

    def __init__(self, spans: List[list], phase: Optional[str] = None):
        self.requests: List[dict] = []
        self._ms: Dict[tuple, List[float]] = {}
        by_id: Dict[int, dict] = {}
        for name, _start, _end, _parent, request_id, attrs in spans:
            if name == "request" and phase in (None, attrs["phase"]):
                entry = {"op": attrs["op"], "attrs": attrs, "layers": {}, "detail": {}}
                by_id[request_id] = entry
                self.requests.append(entry)
        for name, start, end, _parent, request_id, attrs in spans:
            entry = by_id.get(request_id)
            if entry is None or name in ("request", "replay"):
                continue
            duration = (end - start) / 1e6
            entry["layers"][name] = entry["layers"].get(name, 0.0) + duration
            entry["detail"].update(attrs)
            self._ms.setdefault((name, entry["op"]), []).append(duration)

    def durations(self, name: str, op: Optional[str] = None) -> List[float]:
        if op is not None:
            return self._ms.get((name, op), [])
        return [d for (n, _op), ds in self._ms.items() if n == name for d in ds]


def validate_spans(spans: List[dict]) -> List[str]:
    """Problems of a span dump: orphans, open spans, children not nested."""
    problems = []
    for span in spans:
        if span["end_ns"] is None or span["end_ns"] < span["start_ns"]:
            problems.append(f"span {span['id']} ({span['name']}) has no valid end")
            continue
        if span["parent"] is None:
            if span["name"] not in ("request", "replay"):
                problems.append(f"span {span['id']} ({span['name']}) has no parent")
            continue
        parent = spans[span["parent"]]
        if parent["end_ns"] is None:
            continue
        if not (parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"]):
            problems.append(f"span {span['id']} ({span['name']}) leaves its parent's interval")
        if parent["request_id"] != span["request_id"]:
            problems.append(f"span {span['id']} ({span['name']}) changes request id")
    return problems
