"""What one served request costs the observability stack, counted.

Every request is traced, so the trace, the metrics, the workload history,
the accounting and the slow log are paid per request.  These tests count
that work instead of timing it: a served prepared lookup resolves no
metric through the registry once the first request is done, the
per-operator tree is built only when a trace's ``operators`` is read, and
every output (span tree, counters, history, accounting) is the one the
stack produced before its per-request cost was cut, which
``request_outputs.json`` holds.

To re-record the fixture after an intended change to these outputs::

    PYTHONPATH=src python -m tests.obs.test_request_cost > tests/obs/request_outputs.json
"""

from __future__ import annotations

import json
import socket
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.obs import (
    accounting_snapshot,
    metrics_snapshot,
    reset_slow_queries,
    slow_queries,
    start_trace,
    workload_snapshot,
)
from repro.obs import slowlog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.relational.physical import PhysicalPlan
from repro.server import QueryServer

from tests.conftest import build_vehicles_udb

FIXTURE = Path(__file__).with_name("request_outputs.json")

LOOKUP_SQL = "possible (select id from r where type = $1)"

#: (label, how the request is sent, what it sends), in the order they run.
REQUESTS = [
    ("prepared lookup, cold", "prepared", ("lookup", "Tank")),
    ("prepared lookup, warm", "prepared", ("lookup", "Transport")),
    ("ad-hoc query", "session", "possible (select id from r where type = 'Tank')"),
    ("ad-hoc query, shape cached", "session", "possible (select id from r where type = 'Jeep')"),
    ("insert", "session", "insert into r values (5, 'Tank', 'Enemy')"),
    ("update", "session", "update r set faction = 'Friend' where id = 5"),
    ("delete", "session", "delete from r where id = 5"),
    ("begin", "session", "begin"),
    ("insert in a transaction", "session", "insert into r values (6, 'Jeep', 'Friend')"),
    ("read in a transaction", "session", "possible (select id from r where faction = 'Friend')"),
    ("commit", "session", "commit"),
    ("conf query", "session", "conf (select type from r)"),
    ("wire execute", "wire", {"op": "execute", "name": "lookup", "params": ["Tank"]}),
    ("wire query", "wire", {"op": "query", "sql": "possible (select id from r where id = 2)"}),
    ("wire trace", "wire", {"op": "trace", "sql": "possible (select id from r where id = 3)"}),
]


def _shape(node: Dict[str, Any]) -> Dict[str, Any]:
    """A span dict's name, nesting and attribute keys (no values, no times)."""
    shape: Dict[str, Any] = {"name": node["name"], "attrs": sorted(node.get("attrs", {}))}
    if node.get("children"):
        shape["children"] = [_shape(child) for child in node["children"]]
    return shape


class _Wire:
    """One line-protocol connection."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.file = self.sock.makefile("rwb")

    def rpc(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.file.write(json.dumps(request).encode("utf-8") + b"\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def served_outputs() -> Dict[str, Any]:
    """Run :data:`REQUESTS` against a fresh server and collect every
    observability output they leave, in a form that does not depend on
    timing or process-wide ids."""
    udb = build_vehicles_udb()
    server = QueryServer(udb, workers=2)
    handle = server.serve_tcp()
    wire = _Wire(handle.address)
    spans: List[Any] = []
    try:
        session = server.session()
        session.prepare("lookup", LOOKUP_SQL)
        wire.rpc({"op": "prepare", "name": "lookup", "sql": LOOKUP_SQL})
        for label, how, what in REQUESTS:
            reset_slow_queries()
            if how == "prepared":
                session.execute_prepared(*what)
            elif how == "session":
                session.execute(what)
            else:
                assert wire.rpc(what)["ok"]
            (kept,) = slow_queries()
            spans.append([label, _shape(kept)])
    finally:
        wire.close()
        handle.close()
        server.close()
    metrics = metrics_snapshot()
    accounting = accounting_snapshot()
    return {
        "spans": spans,
        "counters": metrics["counters"],
        "histogram_counts": {
            name: {key: series["count"] for key, series in by_key.items()}
            for name, by_key in metrics["histograms"].items()
        },
        "workload": sorted(
            (
                {
                    key: entry[key]
                    for key in (
                        "sql", "cost_class", "relations", "calls", "cached_hits",
                        "rows_out", "estimated_rows", "actual_rows", "drift_runs",
                        "max_drift",
                    )
                }
                for entry in workload_snapshot()
            ),
            key=lambda entry: (entry["sql"] or "", entry["calls"]),
        ),
        "accounting": {
            "by_class": {
                name: {key: tally[key] for key in ("queries", "rows", "bytes_rendered")}
                for name, tally in accounting["by_class"].items()
            },
            "sessions": sorted(
                [tally["queries"], tally["rows"], tally["bytes_rendered"]]
                for tally in accounting["sessions"].values()
            ),
        },
    }


def test_every_output_matches_the_recorded_one():
    """Span names, nesting and attribute keys of each request kind, and
    the counters, histogram counts, history and accounting they leave."""
    expected = json.loads(FIXTURE.read_text())
    observed = json.loads(json.dumps(served_outputs()))
    assert observed["spans"] == expected["spans"]
    for key in ("counters", "histogram_counts", "workload", "accounting"):
        assert observed[key] == expected[key], key


def _lookups(count: int):
    """A server and a session that ran one prepared lookup, and a function
    running ``count`` more."""
    server = QueryServer(build_vehicles_udb(), workers=2)
    session = server.session()
    session.prepare("lookup", LOOKUP_SQL)
    session.execute_prepared("lookup", "Tank")

    def more() -> None:
        for i in range(count):
            session.execute_prepared("lookup", ("Tank", "Transport")[i % 2])

    return server, session, more


def test_a_served_lookup_resolves_no_metric_after_the_first(monkeypatch):
    """Counted: each metric a request updates is a handle its call site
    resolved once, not a registry get-or-create per request."""
    server, _session, more = _lookups(20)
    try:
        resolved = []
        real = MetricsRegistry._get
        monkeypatch.setattr(
            MetricsRegistry,
            "_get",
            lambda self, name, *args, **kwargs: resolved.append(name)
            or real(self, name, *args, **kwargs),
        )
        more()
        assert resolved == []
        assert sum(metrics_snapshot()["counters"]["queries_total"].values()) == 21
    finally:
        server.close()


def test_the_operator_tree_is_built_when_read_and_once(monkeypatch):
    """Counted: no execution builds its ``operators`` tree; the first read
    of a trace's attribute builds it, from that execution's counters, and
    later reads reuse it."""
    server, session, _more = _lookups(0)
    slowlog.configure(threshold=3600.0)
    for _ in range(slowlog.DEFAULT_CAPACITY):  # slower than any request: none is kept
        slower = Trace("query")
        slower.root.end = slower.root.start + 60.0
        slowlog.record(slower)
    try:
        calls: List[PhysicalPlan] = []
        real = PhysicalPlan.actuals
        monkeypatch.setattr(
            PhysicalPlan, "actuals", lambda self: calls.append(self) or real(self)
        )
        with start_trace() as first:
            tanks = session.execute_prepared("lookup", "Tank")
        with start_trace() as second:
            transports = session.execute_prepared("lookup", "Transport")
        for _ in range(10):  # traced, recorded, never read
            session.execute_prepared("lookup", "Tank")
        assert calls == []
        operators = second.find("execute").attrs["operators"]
        assert operators["actual_rows"] == len(transports) != len(tanks)
        built = len(calls)
        assert built and len(set(map(id, calls))) == built  # each operator once
        assert first.find("execute").to_dict()["attrs"]["operators"]["actual_rows"] == len(tanks)
        assert dict(operators) == second.find("execute").to_dict()["attrs"]["operators"]
        assert len(calls) == 2 * built  # the second tree was not built again
    finally:
        server.close()


if __name__ == "__main__":  # re-record the fixture (see the module docstring)
    json.dump(served_outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
