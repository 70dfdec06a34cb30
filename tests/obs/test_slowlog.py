"""The slow-query log: N-slowest retention and the warn threshold."""

import logging
import time

from repro.obs import slow_queries
from repro.obs.slowlog import DEFAULT_CAPACITY, configure, record
from repro.obs.trace import Trace


def _finished_trace(seconds: float, sql: str = "select 1", cost_class: str = "scan"):
    trace = Trace("query")
    trace.root.set(sql=sql, cost_class=cost_class)
    trace.root.end = trace.root.start + seconds
    return trace


def test_keeps_n_slowest_sorted():
    configure(capacity=3, threshold=10.0)
    for ms in (5, 1, 9, 3, 7):
        record(_finished_trace(ms / 1000, sql=f"q{ms}"))
    kept = slow_queries()
    assert [entry["attrs"]["sql"] for entry in kept] == ["q9", "q7", "q5"]
    assert kept[0]["duration_ms"] >= kept[-1]["duration_ms"]


def test_only_a_kept_trace_is_serialized(monkeypatch):
    """Counted, never timed: a trace faster than the fastest kept one is
    dropped on a comparison, without building its span-tree payload."""
    calls = []
    real = Trace.to_dict
    monkeypatch.setattr(Trace, "to_dict", lambda self: calls.append(self) or real(self))
    configure(threshold=10.0)
    for i in range(DEFAULT_CAPACITY):
        record(_finished_trace(0.050 + i / 1000, sql="slow"))
    assert len(calls) == DEFAULT_CAPACITY
    del calls[:]
    for i in range(40):
        record(_finished_trace(0.001 + i / 100_000, sql="fast"))
    assert calls == []
    assert {entry["attrs"]["sql"] for entry in slow_queries()} == {"slow"}
    record(_finished_trace(0.2, sql="slower"))  # displaces the root: serialized
    assert len(calls) == 1
    assert slow_queries(limit=1)[0]["attrs"]["sql"] == "slower"


def test_limit_truncates():
    configure(threshold=10.0)
    for ms in (2, 4, 6):
        record(_finished_trace(ms / 1000))
    assert len(slow_queries(limit=2)) == 2


def test_threshold_emits_warning(caplog):
    configure(threshold=0.05)
    with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
        record(_finished_trace(0.01, sql="fast"))
        record(_finished_trace(0.2, sql="slow join", cost_class="join"))
    lines = [rec.getMessage() for rec in caplog.records]
    assert len(lines) == 1
    assert "slow query" in lines[0]
    assert "class=join" in lines[0]
    assert "'slow join'" in lines[0]


def test_payload_embeds_span_tree():
    configure(threshold=10.0)
    trace = _finished_trace(0.02)
    from repro.obs.trace import Span

    child = Span("execute")
    child.finish()
    trace.root.children.append(child)
    record(trace)
    entry = slow_queries()[0]
    assert entry["trace_id"] == trace.trace_id
    assert entry["children"][0]["name"] == "execute"


def test_reset_restores_defaults():
    from repro.obs import reset_slow_queries
    from repro.obs import slowlog

    configure(capacity=2, threshold=0.001)
    record(_finished_trace(0.01))
    reset_slow_queries()
    assert slow_queries() == []
    assert slowlog._capacity == DEFAULT_CAPACITY
    assert slowlog._threshold == slowlog.DEFAULT_THRESHOLD


def test_shrinking_capacity_evicts_fastest():
    configure(capacity=5, threshold=10.0)
    for ms in (1, 2, 3, 4, 5):
        record(_finished_trace(ms / 1000, sql=f"q{ms}"))
    configure(capacity=2)
    assert [e["attrs"]["sql"] for e in slow_queries()] == ["q5", "q4"]
