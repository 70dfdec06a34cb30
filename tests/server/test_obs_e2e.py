"""End-to-end observability over real TCP: trace, stats, metrics ops.

The acceptance shape for ``{"op": "trace"}``::

    query (sql, cost_class)
      parse      (cached)
      admission  (cost_class, queued)
      execute
        plan     (cached)
        + attrs.operators: per-operator estimated vs actual rows
      render     (rows)
"""

from __future__ import annotations

import pytest

from repro.server import QueryServer

from tests.conftest import build_vehicles_udb
from tests.server.test_tcp import Client

JOIN_SQL = (
    "possible (select r1.id, r2.id from r r1, r r2 "
    "where r1.faction = r2.faction and r1.id < r2.id)"
)


@pytest.fixture()
def served():
    udb = build_vehicles_udb()
    server = QueryServer(udb, workers=4)
    handle = server.serve_tcp()
    yield server, handle.address
    handle.close()
    server.close()


def _child_names(node):
    return [child["name"] for child in node.get("children", ())]


def _find(node, name):
    if node["name"] == name:
        return node
    for child in node.get("children", ()):
        found = _find(child, name)
        if found is not None:
            return found
    return None


def _operator_nodes(node):
    yield node
    for child in node.get("children", ()):
        yield from _operator_nodes(child)


def test_trace_op_returns_full_span_tree(served):
    _server, address = served
    client = Client(address)
    try:
        answer = client.rpc(op="trace", sql=JOIN_SQL)
        assert answer["ok"] and answer["rows"]

        trace = answer["trace"]
        assert trace["name"] == "query"
        assert trace["trace_id"] >= 1
        assert trace["attrs"]["sql"] == JOIN_SQL
        # never seen before -> the admission peek classifies it cold
        assert trace["attrs"]["cost_class"] == "cold"
        assert trace["duration_ms"] > 0

        # the lifecycle, in order, directly under the root
        assert _child_names(trace) == ["parse", "admission", "execute", "render"]

        parse = _find(trace, "parse")
        assert parse["attrs"]["cached"] is False

        admission = _find(trace, "admission")
        assert admission["attrs"] == {"cost_class": "cold", "queued": False}

        execute = _find(trace, "execute")
        # planning happens inside the pool thread yet nests under execute:
        # the contextvar bridge is working
        plan = _find(execute, "plan")
        assert plan is not None and plan["attrs"]["cached"] is False

        operators = execute["attrs"]["operators"]
        assert operators["actual_rows"] == len(answer["rows"])
        nodes = list(_operator_nodes(operators))
        assert len(nodes) > 1  # the plan has real operator structure
        for node in nodes:
            assert node["operator"]
            assert "estimated_rows" in node and "actual_rows" in node
        # operators the executor actually pulled report observed rows
        assert sum(node["actual_rows"] is not None for node in nodes) >= 1

        render = _find(trace, "render")
        assert render["attrs"]["rows"] == len(answer["rows"])
    finally:
        client.close()


def test_trace_op_on_prepared_statement(served):
    _server, address = served
    client = Client(address)
    try:
        client.rpc(op="prepare", name="by_type",
                   sql="possible (select id from r where type = $1)")
        first = client.rpc(op="execute", name="by_type", params=["Tank"])
        assert first["ok"]

        traced = client.rpc(op="trace", name="by_type", params=["Tank"])
        assert traced["ok"]
        assert sorted(r[0] for r in traced["rows"]) == sorted(
            r[0] for r in first["rows"]
        )
        trace = traced["trace"]
        # second run of the same statement: the plan cache serves it, and
        # the admission peek now knows its real class
        assert trace["attrs"]["cost_class"] != "cold"
        plan = _find(trace, "plan")
        assert plan["attrs"]["cached"] is True
        execute = _find(trace, "execute")
        assert execute["attrs"]["operators"]["actual_rows"] == len(traced["rows"])
    finally:
        client.close()


def test_stats_op_reflects_queries_just_run(served):
    _server, address = served
    client = Client(address)
    try:
        for _ in range(4):
            assert client.rpc(op="query", sql=JOIN_SQL)["ok"]
        point = "possible (select id from r where id = 1)"
        assert client.rpc(op="query", sql=point)["ok"]

        stats = client.rpc(op="stats")["stats"]
        assert set(stats) >= {
            "sessions_opened",
            "admission",
            "executor",
            "plan_cache",
            "catalog_version",
            "metrics",
            "segment_log",
            "slow_queries",
        }
        assert stats["sessions_opened"] == 1

        metrics = stats["metrics"]
        queries = metrics["counters"]["queries_total"]
        # the self-join planned once and hit the cache three times; the
        # point lookup planned once (queries_total labels the true class)
        assert queries["cached=false,class=heavy"] == 1
        assert queries["cached=true,class=heavy"] == 3
        assert queries["cached=false,class=point"] == 1

        # query_seconds labels by the admission class: both first-ever
        # runs were "cold", the three repeats were known "heavy"
        latency = metrics["histograms"]["query_seconds"]
        assert latency["class=cold"]["count"] == 2
        heavy = latency["class=heavy"]
        assert heavy["count"] == 3
        assert 0 < heavy["min"] <= heavy["p50"]
        assert heavy["p50"] <= heavy["p95"] <= heavy["p99"]
        assert heavy["p99"] <= heavy["max"]

        # segment health gauges: one entry per vertical partition of r
        segment_log = stats["segment_log"]
        assert set(segment_log) == {"r/part0", "r/part1", "r/part2"}
        for health in segment_log.values():
            assert health["segment_count"] >= 1
            assert health["live_rows"] > 0
            assert 0.0 <= health["deleted_ratio"] <= 1.0

        # the five queries are the five slowest ever seen
        assert len(stats["slow_queries"]) == 5
        assert stats["slow_queries"][0]["duration_ms"] >= stats[
            "slow_queries"
        ][-1]["duration_ms"]
    finally:
        client.close()


def test_metrics_op_returns_prometheus_text(served):
    _server, address = served
    client = Client(address)
    try:
        assert client.rpc(op="query", sql=JOIN_SQL)["ok"]
        answer = client.rpc(op="metrics")
        assert answer["ok"]
        text = answer["metrics"]
        assert "# TYPE queries_total counter" in text
        assert 'queries_total{cached="false",class="heavy"} 1' in text
        assert "# TYPE query_seconds histogram" in text
        assert 'query_seconds_bucket{class="cold",le="+Inf"} 1' in text
    finally:
        client.close()


def test_dml_updates_segment_health_and_counters(served):
    _server, address = served
    client = Client(address)
    try:
        ack = client.rpc(op="query", sql="insert into r values (9, 'Tank', 'Friend')")
        assert ack["ok"] and ack["count"] == 1
        ack = client.rpc(op="query", sql="delete from r where id = 9")
        assert ack["ok"] and ack["count"] == 1

        stats = client.rpc(op="stats")["stats"]
        dml = stats["metrics"]["counters"]["dml_statements_total"]
        assert dml["op=insert"] == 1
        assert dml["op=delete"] == 1

        for health in stats["segment_log"].values():
            # the insert appended a segment and the delete emptied it: the
            # segment policy dropped it, dead row and all
            assert health["segment_count"] == 1
            assert health["deleted_rows"] == 0 and health["deleted_ratio"] == 0
    finally:
        client.close()
