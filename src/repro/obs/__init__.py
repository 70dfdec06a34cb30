"""``repro.obs`` — the unified observability layer.

Three always-on, low-overhead pieces threaded through the whole serving
stack (SQL front-end, sessions, admission, executor, plan cache, DML,
segment log):

* :mod:`repro.obs.metrics` — a process-wide **metrics registry**: named
  counters, gauges, and bucketed latency histograms with label support
  (``queries_total{class="join",cached="true"}``), thread-safe with
  *exact* counts, exposed as a JSON snapshot (with p50/p95/p99 per
  histogram series) and Prometheus-style text.
* :mod:`repro.obs.trace` — **query-lifecycle tracing**: a per-request
  :class:`~repro.obs.trace.Trace` of timed spans (``parse`` →
  ``admission`` → ``execute`` → [``plan``] → ``render``) propagated
  across the session / admission / worker-pool layers via a context
  variable, with per-operator actual row counts captured from the
  executor's existing accounting (no re-run).
* :mod:`repro.obs.slowlog` — a **slow-query log**: a bounded buffer of
  the N slowest traces plus a threshold-triggered structured log line on
  the ``repro.obs.slowlog`` logger.
* :mod:`repro.obs.workload` — a **workload history**: bounded
  per-fingerprint aggregates (calls, latency, rows, estimate drift)
  across requests, feeding :mod:`repro.obs.report`, the drift report
  (which plans ran more than 10x off their estimates).
* :mod:`repro.obs.accounting` — **resource accounting**: queries, rows,
  bytes rendered, and queue/execution time tallied per session and per
  admission cost class, surfaced through ``QueryServer.stats()``.

The escape hatch: ``REPRO_OBS=off`` in the environment (or
:func:`set_enabled` at runtime) turns every metric update, workload/
accounting record, and implicit trace into a no-op; explicit
``{"op": "trace"}`` requests still trace (the caller asked).

Every request is traced, so what matters is the fixed cost per request,
and it weighs most on the shortest requests.  The ``make bench-smoke``
and ``make bench-obs`` gates hold the enabled-mode overhead to <= 5% on
warm Figure 12 Q1/Q2, which take milliseconds: there the fixed cost
weighs least, so they cannot show it.  ``tests/obs/test_request_cost.py``
counts what one served request does instead (no registry lookup after
the first request, the operator tree built only when read, every output
unchanged), and ``README.md`` in this package gives the measured on/off
cost of a served point lookup.
"""

from .accounting import (
    accounting_snapshot,
    record_request,
    record_wait,
    register_session,
    reset_accounting,
)
from .metrics import (
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    histogram,
    metrics_snapshot,
    registry,
    render_prometheus,
    reset_metrics,
    set_enabled,
)
from .slowlog import reset_slow_queries, slow_queries
from .trace import (
    Operators,
    Span,
    Trace,
    activate,
    current_span,
    current_trace,
    record_finished,
    request_trace,
    span,
    start_trace,
)
from .workload import (
    configure_workload,
    record_execution,
    reset_workload,
    workload_size,
    workload_snapshot,
)

__all__ = [
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "render_prometheus",
    "reset_metrics",
    "enabled",
    "set_enabled",
    "Trace",
    "Span",
    "Operators",
    "start_trace",
    "activate",
    "span",
    "current_trace",
    "current_span",
    "request_trace",
    "record_finished",
    "slow_queries",
    "reset_slow_queries",
    "record_execution",
    "workload_snapshot",
    "workload_size",
    "configure_workload",
    "reset_workload",
    "register_session",
    "record_request",
    "record_wait",
    "accounting_snapshot",
    "reset_accounting",
]
