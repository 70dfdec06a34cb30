"""The metrics registry: counters, gauges, and latency histograms.

One process-wide :class:`MetricsRegistry` (module-level, like the plan and
compile caches) holds every metric by name; each metric holds one *series*
per label combination::

    from repro.obs import counter, histogram

    counter("queries_total").inc(cls="join", cached="true")
    histogram("query_seconds").observe(0.0042, cls="join")

Design points:

* **Exact under concurrency.**  Every series update takes the metric's
  lock, so N threads incrementing one counter lose nothing — the
  concurrency property suite hammers this from six threads and asserts
  the total to the increment.
* **Histograms are bucketed**, Prometheus style: fixed log-spaced latency
  bucket bounds, cumulative counts, a sum, and derived p50/p95/p99 via
  linear interpolation inside the owning bucket.  Good enough for
  admission tuning and slow-query thresholds without storing samples.
* **Labels** are passed as keyword arguments and normalized to a sorted
  tuple, so ``inc(a="1", b="2")`` and ``inc(b="2", a="1")`` hit one
  series.  ``cls`` is accepted as a spelling of the reserved word
  ``class`` and rendered as ``class``.  A call site on the request path
  resolves its metric once (a module-level handle) and its labels once
  (``labels(...)`` returns the series' update function), so a request
  pays neither the registry lookup nor the label sort.
* **The kill switch.**  ``REPRO_OBS=off`` in the environment (or
  :func:`set_enabled`) short-circuits every update at the first
  instruction; reads still work (they report whatever was recorded while
  enabled).  This is the benchmarked escape hatch the <= 5% overhead
  gate compares against.

Two export formats: :meth:`MetricsRegistry.snapshot` (JSON-shaped, what
``{"op": "stats"}`` embeds) and :meth:`MetricsRegistry.render_prometheus`
(text exposition for scraping or debugging).

Write-path maturation added its own vocabulary on top of the serving
metrics: ``compactions_total{relation}`` / ``compaction_seconds`` (the
VACUUM path, the only compactor) and the transaction ledger ``txn_total`` /
``txn_committed_total`` / ``txn_rolled_back_total`` /
``txn_conflicts_total`` — conflicts count every first-updater-wins loss,
whether surfaced through the API or the TCP ``conflict`` response.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "render_prometheus",
    "reset_metrics",
    "enabled",
    "set_enabled",
]


#: Latency bucket upper bounds in seconds (log-spaced 100us .. 10s), plus
#: an implicit +Inf bucket.  Chosen to straddle the whole serving range:
#: cached point lookups (~100us) through cold six-way joins (~seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Global on/off switch.  ``REPRO_OBS=off`` (or ``0`` / ``false``)
#: disables every metric update and implicit trace at process start.
_enabled = os.environ.get("REPRO_OBS", "on").strip().lower() not in (
    "off", "0", "false", "no",
)


def enabled() -> bool:
    """Whether observability updates are live (see ``REPRO_OBS``)."""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Flip the global observability switch; returns the previous value.

    The runtime form of ``REPRO_OBS=off`` — the overhead benchmark uses it
    to interleave enabled/disabled arms inside one process.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


def _label_key(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    """Normalize kwargs labels to a canonical hashable key.

    ``cls`` is accepted for the reserved word ``class`` (the admission
    cost class is the most common label in this codebase).
    """
    if not labels:
        return ()
    return tuple(
        sorted(("class" if k == "cls" else k, str(v)) for k, v in labels.items())
    )


def _label_text(key: Tuple[Tuple[str, str], ...]) -> str:
    """The snapshot's series key: ``a=1,b=2`` (empty string when unlabeled)."""
    return ",".join(f"{k}={v}" for k, v in key)


def _prometheus_labels(key: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """What the three kinds share: a name, a lock and series by label key."""

    __slots__ = ("name", "help", "_lock", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[Tuple[Tuple[str, str], ...], Any] = {}

    def labels(self, **labels: Any) -> Callable[..., None]:
        """The update function of the series ``labels`` name, resolved once:
        ``inc(amount=1)`` of a counter, ``observe(value)`` of a histogram.
        A call site whose labels repeat (per cost class, say) holds it."""
        return partial(self._add, _label_key(labels))

    def clear(self) -> None:
        """Drop every series (the metric, and handles to it, stay valid)."""
        with self._lock:
            self._series.clear()

    def _add(self, key: Tuple[Tuple[str, str], ...], amount: float = 1) -> None:
        if not _enabled:
            return
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {_label_text(key): value for key, value in sorted(self._series.items())}


class Counter(_Metric):
    """A monotonically increasing per-series counter."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1, **labels: Any) -> None:
        self._add(_label_key(labels), amount)

    def total(self) -> float:
        """The sum across all label combinations."""
        with self._lock:
            return sum(self._series.values())


class Gauge(_Metric):
    """A per-series value that can go up and down (set/add)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: Any) -> None:
        if not _enabled:
            return
        with self._lock:
            self._series[_label_key(labels)] = value

    def add(self, amount: float = 1, **labels: Any) -> None:
        self._add(_label_key(labels), amount)


class _HistogramSeries:
    __slots__ = ("counts", "count", "sum", "minimum", "maximum")

    def __init__(self, bucket_count: int):
        self.counts = [0] * bucket_count  # per-bucket (non-cumulative) counts
        self.count = 0
        self.sum = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None


class Histogram(_Metric):
    """A bucketed latency histogram with derived percentiles.

    Observations land in fixed log-spaced buckets (:data:`DEFAULT_BUCKETS`
    plus +Inf); :meth:`percentile` interpolates linearly inside the owning
    bucket, clamped by the observed min/max so tiny series don't report a
    percentile outside anything ever seen.
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets: Tuple[float, ...] = tuple(buckets)

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_label_key(labels), value)

    def labels(self, **labels: Any) -> Callable[[float], None]:
        return partial(self._observe, _label_key(labels))

    def _observe(self, key: Tuple[Tuple[str, str], ...], value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
            # the first bucket whose bound is >= value; past the last, +Inf
            series.counts[bisect_left(self.buckets, value)] += 1
            series.count += 1
            series.sum += value
            if series.minimum is None or value < series.minimum:
                series.minimum = value
            if series.maximum is None or value > series.maximum:
                series.maximum = value

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def percentile(self, p: float, **labels: Any) -> Optional[float]:
        """The p-th percentile (0..100) of one series, or None when empty."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return None
            return self._percentile_locked(series, p)

    def _percentile_locked(self, series: _HistogramSeries, p: float) -> float:
        target = max(1e-12, (p / 100.0)) * series.count
        seen = 0.0
        lower = 0.0
        for i, raw in enumerate(series.counts):
            if raw == 0:
                lower = self.buckets[i] if i < len(self.buckets) else lower
                continue
            if seen + raw >= target:
                upper = (
                    self.buckets[i]
                    if i < len(self.buckets)
                    else (series.maximum if series.maximum is not None else lower)
                )
                fraction = (target - seen) / raw
                value = lower + (upper - lower) * fraction
                # clamp by what was actually observed
                if series.maximum is not None:
                    value = min(value, series.maximum)
                if series.minimum is not None:
                    value = max(value, series.minimum)
                return value
            seen += raw
            lower = self.buckets[i] if i < len(self.buckets) else lower
        return series.maximum if series.maximum is not None else lower

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for key, series in sorted(self._series.items()):
                if series.count == 0:
                    continue
                out[_label_text(key)] = {
                    "count": series.count,
                    "sum": series.sum,
                    "min": series.minimum,
                    "max": series.maximum,
                    "p50": self._percentile_locked(series, 50),
                    "p95": self._percentile_locked(series, 95),
                    "p99": self._percentile_locked(series, 99),
                }
            return out

    def _prometheus_lines(self) -> List[str]:
        with self._lock:
            lines: List[str] = []
            for key, series in sorted(self._series.items()):
                cumulative = 0
                for i, bound in enumerate(self.buckets):
                    cumulative += series.counts[i]
                    labels = _prometheus_labels(key, f'le="{bound}"')
                    lines.append(f"{self.name}_bucket{labels} {cumulative}")
                cumulative += series.counts[-1]
                labels = _prometheus_labels(key, 'le="+Inf"')
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
                lines.append(f"{self.name}_sum{_prometheus_labels(key)} {series.sum}")
                lines.append(f"{self.name}_count{_prometheus_labels(key)} {series.count}")
            return lines


class MetricsRegistry:
    """A named collection of metrics; get-or-create by (name, kind)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, factory, kind: str, **kwargs: Any):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory(name, **kwargs)
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, "counter", help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, "gauge", help=help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, "histogram", help=help, buckets=buckets)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-shaped state: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` with p50/p95/p99 per histogram series.

        Metrics that never recorded a series are omitted (instrumentation
        sites get-or-create their metric even when ``REPRO_OBS=off``
        swallows the update, and an empty entry reads as a recording).
        """
        with self._lock:
            metrics = list(self._metrics.values())
        out: Dict[str, Dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in sorted(metrics, key=lambda m: m.name):
            series = metric.snapshot()
            if series:
                out[metric.kind + "s"][metric.name] = series
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every metric and series."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in sorted(metrics, key=lambda m: m.name):
            if not metric.snapshot():  # never recorded: nothing to expose
                continue
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                lines.extend(metric._prometheus_lines())
            else:
                for key, value in metric.snapshot().items():
                    labels = (
                        "{" + ",".join(
                            f'{k}="{v}"' for k, v in (p.split("=", 1) for p in key.split(","))
                        ) + "}"
                        if key
                        else ""
                    )
                    lines.append(f"{metric.name}{labels} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every recorded series (test/bench hook, mirrors the cache
        resets).  The metrics themselves stay registered, so the handles
        instrumentation sites hold keep recording into this registry."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()


#: The process-wide registry every instrumentation site records into.
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _registry


def counter(name: str, help: str = "") -> Counter:
    return _registry.counter(name, help=help)


def gauge(name: str, help: str = "") -> Gauge:
    return _registry.gauge(name, help=help)


def histogram(name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    return _registry.histogram(name, help=help, buckets=buckets)


def metrics_snapshot() -> Dict[str, Dict[str, Any]]:
    return _registry.snapshot()


def render_prometheus() -> str:
    return _registry.render_prometheus()


def reset_metrics() -> None:
    _registry.reset()
