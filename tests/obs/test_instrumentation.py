"""Observability hooks in the engine itself: explain traces, the
estimate-vs-actual history, and segment-log health gauges."""

from __future__ import annotations

from repro.core import execute_query
from repro.core.query import Poss, Rel, USelect
from repro.core.translate import explain_query
from repro.obs import gauge, metrics_snapshot, workload_snapshot
from repro.obs.workload import drift_ratio
from repro.relational.expressions import col, lit
from repro.relational.physical import HashJoin, SeqScan
from repro.relational.relation import Relation
from repro.sql import execute_sql

from tests.conftest import build_vehicles_udb


def _tank_query():
    return Poss(USelect(Rel("r"), col("type").eq(lit("Tank"))))


# ----------------------------------------------------------------------
# explain_analyze(trace=True)
# ----------------------------------------------------------------------
def test_explain_analyze_trace_returns_structured_data():
    from repro.relational.explain import explain_analyze

    left = SeqScan(Relation(["l.k", "l.a"], [(i, i) for i in range(8)]), "l")
    right = SeqScan(Relation(["r.k", "r.b"], [(i, -i) for i in range(4)]), "r")
    plan = HashJoin(left, right, [("l.k", "r.k")])

    result, text, data = explain_analyze(plan, trace=True)
    assert len(result) == 4
    assert "actual rows=" in text

    assert data["name"] == "explain_analyze"
    assert data["trace_id"] >= 1
    execute_span = data["children"][0]
    assert execute_span["name"] == "execute"
    assert execute_span["duration_ms"] >= 0

    operators = data["operators"]
    assert operators["operator"].startswith("Hash Join")
    assert operators["actual_rows"] == 4
    assert len(operators["children"]) == 2
    for child in operators["children"]:
        assert child["operator"].startswith("Seq Scan")


def test_explain_query_analyze_trace():
    udb = build_vehicles_udb()
    text, data = explain_query(_tank_query(), udb, analyze=True, trace=True)
    assert "actual rows=" in text
    assert data["name"] == "explain_analyze"
    assert data["operators"]["actual_rows"] is not None
    # estimate and actual are both present on every node, so a consumer
    # can compute row-estimate deltas without re-parsing the text
    def walk(node):
        assert "estimated_rows" in node and "actual_rows" in node
        for child in node.get("children", ()):
            walk(child)

    walk(data["operators"])


def test_explain_query_without_trace_keeps_old_shape():
    udb = build_vehicles_udb()
    text = explain_query(_tank_query(), udb, analyze=True)
    assert isinstance(text, str) and "actual rows=" in text
    plain = explain_query(_tank_query(), udb)
    assert isinstance(plain, str)


def test_operator_tree_is_built_only_for_a_trace(monkeypatch):
    """Counted, never timed: ``actuals()`` is a nested dict of the whole
    operator tree, and without a trace the span it would be set on is the
    shared no-op — so no entry point builds it then."""
    from repro.obs import set_enabled, start_trace
    from repro.relational import Database
    from repro.relational.physical import PhysicalPlan

    calls = []
    real = PhysicalPlan.actuals
    monkeypatch.setattr(
        PhysicalPlan, "actuals", lambda self: calls.append(self) or real(self)
    )
    udb = build_vehicles_udb()
    db = Database({"t": Relation(["t.a"], [(1,), (2,)])})
    previous = set_enabled(False)
    try:
        for _ in range(2):  # a planning run and a cached one
            execute_query(_tank_query(), udb)
            execute_sql("possible (select id from r where type = 'Tank')", udb)
            db.run(db.scan("t"))
    finally:
        set_enabled(previous)
    db.run(db.scan("t"))  # obs on, but no entry surface opened a trace
    assert calls == []
    with start_trace() as trace:
        db.run(db.scan("t"))
    assert calls and trace.root.attrs["operators"]["actual_rows"] == 2


# ----------------------------------------------------------------------
# estimate-vs-actual feedback: the workload history is its one record
# ----------------------------------------------------------------------
def test_workload_history_records_estimate_actual_and_drift():
    """What the plan-cache entry used to repeat (``observed_rows`` /
    ``observed_runs``) is read where it is recorded once: per fingerprint,
    on every execution, cached or not."""
    udb = build_vehicles_udb()
    query = _tank_query()
    answer = execute_query(query, udb)
    (entry,) = workload_snapshot()
    assert entry["calls"] == 1 and entry["cached_hits"] == 0
    assert entry["actual_rows"] == len(answer)
    assert entry["estimated_rows"] is not None
    # drift is the worst operator's, read from the execution's own counters
    _text, data = explain_query(query, udb, analyze=True, trace=True)
    stack, ratios = [data["operators"]], []
    while stack:
        op = stack.pop()
        stack.extend(op["children"])
        if op["actual_rows"] is not None:
            ratios.append(drift_ratio(op["estimated_rows"], op["actual_rows"]))
    assert entry["max_drift"] == max(ratios)
    assert entry["max_drift"] >= drift_ratio(entry["estimated_rows"], len(answer))
    assert entry["cost_class"] in ("point", "scan", "join", "heavy")

    execute_query(query, udb)
    (entry,) = workload_snapshot()
    assert entry["calls"] == 2 and entry["cached_hits"] == 1
    assert entry["actual_rows"] == len(answer)


# ----------------------------------------------------------------------
# segment-log health
# ----------------------------------------------------------------------
def test_segment_health_untouched_partitions():
    udb = build_vehicles_udb()
    health = udb.segment_health(publish=False)
    assert set(health) == {"r/part0", "r/part1", "r/part2"}
    for entry in health.values():
        assert entry["segment_count"] == 1
        assert entry["live_rows"] > 0
        assert entry["deleted_rows"] == 0
        assert entry["deleted_ratio"] == 0.0
    # publish=False must not create the gauges
    assert "segment_count" not in metrics_snapshot()["gauges"]


def test_segment_health_tracks_dml():
    udb = build_vehicles_udb()
    execute_sql("insert into r values (9, 'Tank', 'Friend')", udb)
    execute_sql("insert into r values (10, 'Jeep', 'Enemy')", udb)
    execute_sql("delete from r where id = 9", udb)

    health = udb.segment_health()
    for entry in health.values():
        assert entry["segment_count"] >= 2  # base + appended delta(s)
        assert entry["deleted_rows"] >= 1
        assert 0.0 < entry["deleted_ratio"] < 1.0

    # published as labeled gauges for the metrics snapshot
    for key, entry in health.items():
        assert gauge("segment_count").value(partition=key) == entry["segment_count"]
        assert gauge("segment_live_rows").value(partition=key) == entry["live_rows"]
        assert gauge("segment_deleted_ratio").value(partition=key) == (
            entry["deleted_ratio"]
        )
