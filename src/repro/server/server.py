"""The query-serving frontend: in-process API plus a TCP line protocol.

:class:`QueryServer` composes the serving subsystem over one shared
:class:`~repro.core.udatabase.UDatabase`:

* sessions (:meth:`QueryServer.session`) own per-connection statements
  and bindings (:mod:`repro.server.session`),
* an :class:`~repro.server.admission.AdmissionController` classifies each
  request by plan-cache cost class and bounds per-class concurrency,
* a :class:`~repro.server.executor.ConcurrentExecutor` runs cached plans
  on a worker pool, coalescing identical in-flight requests.

The TCP mode (:meth:`QueryServer.serve_tcp`, or ``python -m
repro.server``) speaks newline-delimited JSON — one request object per
line, one response object per line::

    -> {"op": "query",   "sql": "possible (select ...)", "params": []}
    <- {"ok": true, "columns": ["a"], "rows": [[1], [2]]}
    -> {"op": "prepare", "name": "q1", "sql": "... where x = $1"}
    <- {"ok": true, "prepared": "q1", "parameters": 1}
    -> {"op": "execute", "name": "q1", "params": [7]}
    <- {"ok": true, "columns": [...], "rows": [...]}
    -> {"op": "query",   "sql": "insert into r values (9, $1)", "params": ["x"]}
    <- {"ok": true, "dml": "INSERT", "count": 1, "variables": []}
    -> {"op": "stats"}
    <- {"ok": true, "stats": {...}}
    -> {"op": "trace",   "sql": "possible (select ...)"}
    <- {"ok": true, "columns": [...], "rows": [...], "trace": {...span tree...}}
    -> {"op": "metrics"}
    <- {"ok": true, "metrics": "...Prometheus text..."}

DML (INSERT/UPDATE/DELETE) rides the same ``query``/``prepare``/
``execute`` ops: it admits under the dedicated ``dml`` cost class and is
*never* coalesced — two identical INSERTs are two writes, not one shared
flight.

Transaction control and maintenance ride the ``query`` op too::

    -> {"op": "query", "sql": "begin"}
    <- {"ok": true, "txn": {"status": "open", "statements": 0, ...}}
    -> {"op": "query", "sql": "commit"}
    <- {"ok": true, "txn": {"status": "committed", "statements": 2,
                             "relations": ["r"], "variables": []}}
    -> {"op": "query", "sql": "vacuum r"}
    <- {"ok": true, "vacuum": {"relations": ["r"], "partitions": 1, ...}}

A commit that loses the first-updater race answers ``{"ok": false,
"kind": "conflict", ...}`` (the transaction is rolled back).  A shed
request answers ``{"ok": false, "kind": "overloaded", ...}``
immediately — load shedding is a *response*, not a dropped connection.
Values without a JSON representation (dates, decimals) are serialized
through ``str``.

Constructing the server with ``auto_compact=True`` (or a
:class:`~repro.core.udatabase.CompactionPolicy`) starts a background
thread that wakes after each completed write and compacts any partition
whose segment health crosses the policy thresholds.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.dml import DMLResult
from ..core.prepared import PreparedDML, PreparedQuery
from ..core.probability import ConfidenceAnswer
from ..core.query import Conf
from ..core.txn import TransactionConflict, TxnResult
from ..core.udatabase import CompactionPolicy, CompactionResult, UDatabase
from ..core.urelation import URelation
from ..obs import (
    accounting_snapshot,
    activate,
    counter as obs_counter,
    current_trace,
    metrics_snapshot,
    record_finished,
    record_render,
    render_prometheus,
    request_trace,
    slow_queries,
    span as obs_span,
    start_trace,
    workload_snapshot,
)
from ..obs.report import advisory_report
from ..relational.plancache import (
    cached_cost_class,
    plan_cache_stats,
    publish_plan_cache_metrics,
)
from ..relational.relation import Relation
from .admission import AdmissionController, AdmissionPolicy, Overloaded
from .executor import ConcurrentExecutor
from .session import Session, SnapshotChanged

__all__ = ["QueryServer", "TCPHandle"]


class QueryServer:
    """Serves queries over one shared UDatabase from many sessions."""

    def __init__(
        self,
        udb: UDatabase,
        workers: int = 4,
        policy: Optional[AdmissionPolicy] = None,
        coalesce: bool = True,
        auto_compact: Any = None,
    ):
        self.udb = udb
        self.admission = AdmissionController(policy)
        self.executor = ConcurrentExecutor(workers=workers, coalesce=coalesce)
        self._sessions_opened = 0
        # RLock: ``query`` opens its default session while holding the lock
        self._lock = threading.RLock()
        self._default_session: Optional[Session] = None
        #: Background compaction: ``auto_compact=True`` uses the default
        #: :class:`~repro.core.udatabase.CompactionPolicy`; a policy
        #: instance tunes the thresholds; None/False disables the thread.
        self._compact_policy: Optional[CompactionPolicy] = None
        self._compact_wake = threading.Event()
        self._compact_stop = threading.Event()
        self._compact_thread: Optional[threading.Thread] = None
        if auto_compact:
            self._compact_policy = (
                auto_compact
                if isinstance(auto_compact, CompactionPolicy)
                else CompactionPolicy()
            )
            self._compact_thread = threading.Thread(
                target=self._compact_loop, name="repro-auto-compact", daemon=True
            )
            self._compact_thread.start()
        #: Rendered-response cache for the TCP frontend: result object ->
        #: serialized JSON line.  Coalesced requests share one immutable
        #: result; serializing it once per *result* instead of once per
        #: waiter removes the dominant per-request cost of hot cached
        #: queries.  Keys are object ids, sound because the entry pins the
        #: result (bounded, LRU).
        self._render_lock = threading.Lock()
        self._render_cache: "OrderedDict[int, Tuple[Any, bytes]]" = OrderedDict()
        self._render_limit = 64

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session(self) -> Session:
        """Open a new session bound to this server's executor and limits."""
        with self._lock:
            self._sessions_opened += 1
        obs_counter("sessions_opened_total", "Sessions opened on this process").inc()
        return Session(self.udb, server=self)

    def query(self, sql: str, params: Sequence[Any] = ()):
        """Convenience one-shot query through a server-owned session."""
        with self._lock:
            if self._default_session is None:
                self._default_session = self.session()
            session = self._default_session
        return session.execute(sql, params)

    # ------------------------------------------------------------------
    # the request path: classify -> admit -> (coalesced) execute
    # ------------------------------------------------------------------
    def execute(self, prepared: PreparedQuery, params: Tuple[Any, ...] = ()):
        """Run a prepared statement through admission + the worker pool.

        The admission class comes from the prepared-plan cache: a valid
        cached entry serves its recorded cost class, anything else is
        ``cold`` (it is about to pay planning).  Identical in-flight
        requests (same plan-cache key, bindings, and catalog version)
        coalesce onto one execution.  The key is the statement's
        (:meth:`~repro.core.prepared.PreparedQuery.plan_key`); nothing on
        this path walks the query tree.
        """
        trace = current_trace()
        if isinstance(prepared, PreparedDML):
            # writes admit under their own class and never coalesce:
            # two identical INSERTs are two writes, not one shared flight
            if trace is not None:
                trace.root.set(cost_class="dml")
            with self.admission.admit("dml"):
                with obs_span("execute") as exec_span:
                    result = self.executor.run(
                        self._bridged(lambda: prepared.run(*params), trace, exec_span),
                        key=None,
                    )
            # each completed write nudges the background compactor — the
            # trigger is a cheap event set; the thread re-checks thresholds
            if self._compact_thread is not None:
                self._compact_wake.set()
            return result
        # the statement owns the key its execution looks up and stores
        # under (the plan of its relational core): derived once in its
        # lifetime, read here for the admission peek and the coalescing
        # key, and again by ``prepared.run`` on the worker
        key = prepared.plan_key()
        # a conf query's class is known from its shape alone, so even the
        # first (uncached) execution admits under the conf limit — the
        # #P-hard tail must never slip in through the cold class
        if isinstance(prepared.core, Conf):
            cost_class = "conf"
        else:
            cost_class = cached_cost_class(key) or "cold"
        coalesce_key: Optional[Tuple[Any, ...]]
        if key is None:
            coalesce_key = None
        else:
            # a certain(q) answer is not the answer of its core q — the
            # two run one plan and must never share one flight
            certain = prepared.query is not prepared.core
            coalesce_key = (key, certain, params, self.udb.catalog_version)
            try:
                hash(coalesce_key)
            except TypeError:  # unhashable binding: execute un-coalesced
                coalesce_key = None

        if trace is not None:
            trace.root.set(cost_class=cost_class)

        def work():
            return prepared.run(*params)

        # join an identical in-flight execution without consuming an
        # admission slot — a waiter costs nothing, and hot-query bursts
        # must coalesce even when their class admits only two executions
        inflight = self.executor.peek(coalesce_key)
        if inflight is not None:
            # a waiter has no execution internals of its own — the leader
            # owns the plan/operator spans
            with obs_span("execute", coalesced=True):
                return inflight.result()
        with self.admission.admit(cost_class):
            with obs_span("execute") as exec_span:
                return self.executor.run(
                    self._bridged(work, trace, exec_span), key=coalesce_key
                )

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def vacuum(self, table: Optional[str] = None) -> CompactionResult:
        """Compact segment stacks now (the server-side face of ``VACUUM``).

        Admits under the dedicated ``vacuum`` class (limit 1: a second
        VACUUM could only queue behind the first on the write lock) and
        runs on the caller's thread — compaction serializes on the
        database write lock, so a pool slot would buy nothing.
        """
        trace = current_trace()
        if trace is not None:
            trace.root.set(cost_class="vacuum")
        with self.admission.admit("vacuum"):
            with obs_span("execute"):
                return self.udb.compact(table)

    def maybe_compact(
        self, policy: Optional[CompactionPolicy] = None
    ) -> CompactionResult:
        """Threshold-gated compaction: only partitions whose health is due."""
        with self.admission.admit("vacuum"):
            return self.udb.maybe_compact(policy or self._compact_policy)

    def _compact_loop(self) -> None:
        """Background trigger: wake after writes, compact what is due.

        Waits on ``_compact_wake`` (set by every completed DML) with a
        periodic timeout so externally applied churn (direct ``udb`` DML)
        is also eventually reclaimed.  Failures are swallowed — a broken
        compaction pass must never take the serving loop down with it.
        """
        while not self._compact_stop.is_set():
            self._compact_wake.wait(timeout=1.0)
            if self._compact_stop.is_set():
                return
            self._compact_wake.clear()
            try:
                self.maybe_compact()
            except Exception:
                obs_counter(
                    "compaction_errors_total",
                    "Background compaction passes that raised",
                ).inc()

    @staticmethod
    def _bridged(work, trace, exec_span):
        """Carry the request's trace context onto the worker pool.

        ``ThreadPoolExecutor`` does not propagate context variables, so
        the request thread captures ``(trace, execute-span)`` here and the
        pool thread re-installs them — plan and operator spans then nest
        under the request's execute span.  A coalesced follower may run
        under the *leader's* bridge; only the leader's trace sees the
        execution internals, which is exactly what happened.
        """
        if trace is None:
            return work

        def bridged():
            with activate(trace, exec_span):
                return work()

        return bridged

    def render_result(self, result: Any) -> bytes:
        """The serialized JSON response line for a statement result.

        Memoized per result object (see ``_render_cache``): the N-1
        coalesced waiters of a single-flight execution — and every later
        request served the same cached result — reuse one serialization.
        """
        key = id(result)
        with self._render_lock:
            hit = self._render_cache.get(key)
            if hit is not None and hit[0] is result:
                self._render_cache.move_to_end(key)
                return hit[1]
        line = json.dumps(_result_payload(result), default=str).encode("utf-8") + b"\n"
        with self._render_lock:
            self._render_cache[key] = (result, line)
            self._render_cache.move_to_end(key)
            while len(self._render_cache) > self._render_limit:
                self._render_cache.popitem(last=False)
        return line

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The unified observability snapshot (schema: server/README.md).

        Stable keys: ``sessions_opened``, ``admission``, ``executor``,
        ``plan_cache``, ``catalog_version`` (the pre-obs surface, shapes
        unchanged) plus ``metrics`` (the registry snapshot with
        p50/p95/p99 per histogram series), ``segment_log`` (per-partition
        write-path health, refreshed by this call), and ``slow_queries``
        (the slowest traces, slowest first), plus ``accounting``
        (per-session and per-cost-class resource tallies).
        """
        publish_plan_cache_metrics()  # refresh the plan_cache_* gauges
        return {
            "sessions_opened": self._sessions_opened,
            "admission": self.admission.stats(),
            "executor": self.executor.stats(),
            "plan_cache": plan_cache_stats(),
            "catalog_version": self.udb.catalog_version,
            "metrics": metrics_snapshot(),
            "segment_log": self.udb.segment_health(),
            "slow_queries": slow_queries(limit=5),
            "accounting": accounting_snapshot(),
        }

    def close(self) -> None:
        if self._compact_thread is not None:
            self._compact_stop.set()
            self._compact_wake.set()
            self._compact_thread.join(timeout=5)
            self._compact_thread = None
        self.executor.shutdown()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # TCP mode
    # ------------------------------------------------------------------
    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> "TCPHandle":
        """Start the line-protocol TCP frontend on a background thread.

        ``port=0`` binds an ephemeral port; the returned handle exposes
        the bound ``address`` and a ``close()`` that stops the listener
        (sessions die with their connections).
        """
        tcp = _TCPServer((host, port), _ConnectionHandler)
        tcp.query_server = self
        thread = threading.Thread(
            target=tcp.serve_forever, name="repro-serve-tcp", daemon=True
        )
        thread.start()
        return TCPHandle(tcp, thread)


class TCPHandle:
    """A running TCP frontend: its bound address and a clean shutdown."""

    def __init__(self, tcp: "_TCPServer", thread: threading.Thread):
        self._tcp = tcp
        self._thread = thread
        self.address: Tuple[str, int] = tcp.server_address

    def close(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "TCPHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    query_server: QueryServer  # attached by serve_tcp


def _result_payload(result: Any) -> Dict[str, Any]:
    """JSON-shape a statement result (relation, U-relation, index, None)."""
    if isinstance(result, URelation):
        relation = result.relation
        return {
            "ok": True,
            "columns": list(relation.schema.names),
            "rows": [list(row) for row in relation.rows],
            "urelation": True,
        }
    if isinstance(result, ConfidenceAnswer):
        return {
            "ok": True,
            "columns": list(result.schema.names),
            "rows": [list(row) for row in result.rows],
            "conf": dict(result.conf),
        }
    if isinstance(result, Relation):
        return {
            "ok": True,
            "columns": list(result.schema.names),
            "rows": [list(row) for row in result.rows],
        }
    if isinstance(result, DMLResult):
        return {
            "ok": True,
            "dml": result.statement.upper(),
            "count": result.count,
            "variables": list(result.variables),
        }
    if isinstance(result, TxnResult):
        return {
            "ok": True,
            "txn": {
                "status": result.status,
                "statements": result.statements,
                "relations": list(result.relations),
                "variables": list(result.variables),
            },
        }
    if isinstance(result, CompactionResult):
        return {
            "ok": True,
            "vacuum": {
                "relations": list(result.relations),
                "partitions": result.partitions,
                "segments_before": result.segments_before,
                "rows_dropped": result.rows_dropped,
                "seconds": result.seconds,
            },
        }
    # index DDL returns the Index (CREATE) or None (DROP); an Index must
    # not be mistaken for a result set (it carries a .relation too)
    return {"ok": True, "result": None if result is None else str(result)}


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One TCP connection == one session; JSON objects, one per line."""

    def handle(self) -> None:
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        server: QueryServer = self.server.query_server
        session = server.session()
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                response = self._dispatch(server, session, json.loads(line))
            except Overloaded as error:
                response = {
                    "ok": False,
                    "kind": "overloaded",
                    "class": error.cost_class,
                    "error": str(error),
                }
            except SnapshotChanged as error:
                response = {"ok": False, "kind": "snapshot", "error": str(error)}
            except TransactionConflict as error:
                response = {"ok": False, "kind": "conflict", "error": str(error)}
            except Exception as error:  # protocol survives bad statements
                response = {"ok": False, "kind": "error", "error": str(error)}
            if response is None:  # close requested
                break
            if not isinstance(response, bytes):  # pre-rendered results skip dumps
                response = json.dumps(response, default=str).encode("utf-8") + b"\n"
            self.wfile.write(response)
            self.wfile.flush()

    def _dispatch(
        self, server: QueryServer, session: Session, request: Dict[str, Any]
    ) -> Any:  # a response dict, pre-rendered bytes, or None (close)
        op = request.get("op", "query")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "close":
            return None
        if op == "stats":
            return {"ok": True, "stats": server.stats()}
        if op == "metrics":
            publish_plan_cache_metrics()  # plan_cache_* gauges in exposition
            return {"ok": True, "metrics": render_prometheus()}
        if op == "workload":
            return {
                "ok": True,
                "workload": workload_snapshot(limit=request.get("limit")),
            }
        if op == "report":
            return {"ok": True, "report": advisory_report()}
        if op == "prepare":
            prepared = session.prepare(request["name"], request["sql"])
            return {
                "ok": True,
                "prepared": request["name"],
                "parameters": prepared.parameter_count,
            }
        if op == "execute":
            # the handler owns the trace so the render span joins it
            # (session-started traces would close before serialization)
            with request_trace():
                result = session.execute_prepared(
                    request["name"], *tuple(request.get("params", ()))
                )
                return self._render(server, session, result)
        if op == "query":
            with request_trace(sql=request["sql"]):
                result = session.execute(
                    request["sql"], tuple(request.get("params", ()))
                )
                return self._render(server, session, result)
        if op == "trace":
            # an explicit trace request: runs the statement like "query"
            # but returns the span tree alongside the result.  force=True
            # makes this work even under REPRO_OBS=off — the caller asked.
            with start_trace(force=True) as trace:
                trace.root.set(sql=request.get("sql", ""))
                if "name" in request:
                    result = session.execute_prepared(
                        request["name"], *tuple(request.get("params", ()))
                    )
                else:
                    result = session.execute(
                        request["sql"], tuple(request.get("params", ()))
                    )
                with obs_span("render") as sp:
                    payload = _result_payload(result)
                    sp.set(rows=len(payload.get("rows", ())))
            record_finished(trace)
            payload["trace"] = trace.to_dict()
            return payload
        return {"ok": False, "kind": "error", "error": f"unknown op {op!r}"}

    @staticmethod
    def _render(server: QueryServer, session: Session, result: Any) -> bytes:
        """Serialize a result under a ``render`` span on the active trace."""
        with obs_span("render") as sp:
            line = server.render_result(result)
            sp.set(bytes=len(line))
        trace = current_trace()
        record_render(
            session.accounting_id,
            len(line),
            trace.root.attrs.get("cost_class") if trace is not None else None,
        )
        return line
