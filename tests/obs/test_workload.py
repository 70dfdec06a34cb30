"""Workload intelligence: fingerprints, bounded history, advisory report.

The contract under test, end to end:

* queries that differ only in literals / ``$n`` bindings share one
  fingerprint and aggregate into one history entry;
* ``REPRO_OBS=off`` (``set_enabled(False)``) fully disables the pipeline
  — the history does not grow, accounting does not move;
* the history is LRU-bounded under randomized fingerprint churn;
* the report built from it flags the plans whose estimates drifted more
  than 10x from what ran, worst operator first, and nothing else.
"""

from __future__ import annotations

import json

import pytest

from repro.core.udatabase import UDatabase, tid_column
from repro.core.urelation import URelation
from repro.obs import (
    accounting_snapshot,
    configure_workload,
    record_execution,
    set_enabled,
    workload_size,
    workload_snapshot,
)
from repro.obs.report import advisory_report, render_text
from repro.relational.relation import Relation
from repro.sql import execute_sql, fingerprint_sql

from tests.conftest import without_indexes


def _certain_udb(rows) -> UDatabase:
    udb = UDatabase()
    part = URelation.from_certain_rows(rows, tid_column("r"), ["a", "b"])
    udb.add_relation("r", ["a", "b"], [part])
    return udb


def _profile(fingerprint: str, **overrides):
    profile = {
        "fingerprint": fingerprint,
        "plan_key": f"pk_{fingerprint}",
        "cost_class": "scan",
        "relations": ("u_r_a_b",),
    }
    profile.update(overrides)
    return profile


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def test_literal_variants_and_params_share_one_fingerprint():
    udb = _certain_udb([(i, i % 7) for i in range(60)])
    for v in (1, 2, 3):
        execute_sql(f"possible (select a from r where b = {v})", udb)
    execute_sql("possible (select a from r where b = $1)", udb, params=[4])

    history = workload_snapshot()
    assert len(history) == 1
    entry = history[0]
    assert entry["calls"] == 4
    assert entry["fingerprint"] == fingerprint_sql(
        "possible (select a from r where b = 99)"
    )
    assert entry["relations"] == ["u_r_a_b"]
    assert "predicates" not in entry and "access_paths" not in entry


def test_distinct_structure_distinct_fingerprint():
    a = fingerprint_sql("possible (select a from r where b = 1)")
    b = fingerprint_sql("possible (select a from r where a = 1)")
    c = fingerprint_sql("possible (select a from r where b < 1)")
    assert len({a, b, c}) == 3
    assert all(len(f) == 16 for f in (a, b, c))


def test_fingerprint_digests_are_pinned():
    """Digests recorded in workload histories must survive refactors of
    the key walker: these were taken before the three query-key walks
    (structure key, fingerprint, ad-hoc shape) became one."""
    assert fingerprint_sql(
        "possible (select o.orderdate, o.totalprice from orders o where o.orderkey = 7)"
    ) == "fc008c4df9d54ef7"
    assert fingerprint_sql(
        "possible (select extendedprice from lineitem "
        "where shipdate between '1994-01-01' and '1996-01-01' "
        "and discount between 0.05 and 0.08 and quantity < 24 "
        "and shipmode in ('AIR', 'RAIL') and not (tax = 0.02 or comment is null))"
    ) == "6ee8ef633bbbfa7a"
    assert fingerprint_sql(
        "conf (select l.shipmode from lineitem l, orders o where l.orderkey = o.orderkey "
        "and o.orderstatus = 'F') method approx epsilon 0.1 seed 7"
    ) == "8a75454e1d00c8bf"
    assert fingerprint_sql("certain (select id from r where 5 = id)") == "855c01c3fb6dbeaf"


def test_fingerprint_sql_is_none_for_non_queries():
    assert fingerprint_sql("insert into r values (1, 2)") is None
    assert fingerprint_sql("vacuum") is None
    assert fingerprint_sql("begin") is None


def test_history_tracks_latency_and_rows():
    udb = _certain_udb([(i, i % 5) for i in range(50)])
    for _ in range(3):
        execute_sql("possible (select a from r where b = 2)", udb)
    entry = workload_snapshot()[0]
    assert entry["rows_out"] == 30  # 10 rows x 3 calls
    assert entry["mean_ms"] >= 0
    assert entry["p95_ms"] >= entry["p50_ms"] >= 0
    assert entry["cached_hits"] == 2  # first call planned, rest hit the cache


# ----------------------------------------------------------------------
# the off switch
# ----------------------------------------------------------------------
def test_obs_off_freezes_history_and_accounting():
    udb = _certain_udb([(i, i % 3) for i in range(30)])
    set_enabled(False)
    try:
        for v in (0, 1, 2, 0, 1):
            execute_sql(f"possible (select a from r where b = {v})", udb)
        assert workload_size() == 0
        assert workload_snapshot() == []
        snapshot = accounting_snapshot()
        assert snapshot["by_class"] == {}
        assert snapshot["sessions"] == {}
    finally:
        set_enabled(True)
    # re-enabled: the same pipeline records again immediately
    execute_sql("possible (select a from r where b = 1)", udb)
    assert workload_size() == 1


# ----------------------------------------------------------------------
# bounded history
# ----------------------------------------------------------------------
def test_history_is_lru_bounded_under_fingerprint_churn():
    previous = configure_workload(16)
    try:
        import random

        rng = random.Random(1234)
        fingerprints = [f"fp{i:04d}" for i in range(200)]
        rng.shuffle(fingerprints)
        for fp in fingerprints:
            for _ in range(rng.randrange(1, 4)):
                record_execution(_profile(fp), seconds=0.001, rows=1, cached=True)
            assert workload_size() <= 16
        assert workload_size() == 16
        # the survivors are exactly the 16 most recently touched
        surviving = {entry["fingerprint"] for entry in workload_snapshot()}
        assert surviving == set(fingerprints[-16:])
    finally:
        configure_workload(previous)


def test_hot_fingerprint_survives_churn():
    previous = configure_workload(8)
    try:
        hot = _profile("fp_hot")
        for i in range(100):
            record_execution(hot, seconds=0.001, rows=1, cached=True)
            record_execution(_profile(f"fp{i:04d}"), seconds=0.001, rows=1, cached=True)
        surviving = {entry["fingerprint"] for entry in workload_snapshot()}
        assert "fp_hot" in surviving
        assert workload_size() == 8
    finally:
        configure_workload(previous)


# ----------------------------------------------------------------------
# the drift report
# ----------------------------------------------------------------------
def test_advisory_report_flags_estimate_drift():
    drifting = _profile("fp_drift")
    for _ in range(3):
        record_execution(
            drifting, seconds=0.001, rows=500, cached=True, estimated=10, actual=500
        )
    report = advisory_report()
    assert sorted(report) == ["drifting_plans", "history"]
    flagged = [d for d in report["drifting_plans"] if d["fingerprint"] == "fp_drift"]
    assert flagged and flagged[0]["drift"] == pytest.approx(50.0)
    assert flagged[0]["drift_runs"] == 3
    assert report["history"] == {"fingerprints": 1, "executions": 3}
    assert advisory_report(min_calls=4)["drifting_plans"] == []


def test_drift_is_the_worst_operator_s_not_the_root_s():
    """A root that is exact above a join that is off by 500x: the plan is
    the worst-estimated in the history, not the best."""
    record_execution(
        _profile("fp_inner"),
        seconds=0.05,
        rows=1,
        cached=True,
        estimated=1,
        actual=1,
        operators=[(1, 1), (24, 12_000), (300, 300)],
    )
    (entry,) = workload_snapshot()
    assert (entry["estimated_rows"], entry["actual_rows"]) == (1, 1)  # the root's
    assert entry["max_drift"] == pytest.approx(500.0) and entry["drift_runs"] == 1
    (flagged,) = advisory_report(min_calls=1)["drifting_plans"]
    assert flagged["fingerprint"] == "fp_inner" and flagged["drift"] == pytest.approx(500.0)


def test_render_text_and_cli_roundtrip(tmp_path, capsys):
    for _ in range(3):
        record_execution(
            _profile("fp_cli"), seconds=0.002, rows=5, cached=True, estimated=2, actual=90
        )
    report = advisory_report()
    text = render_text(report)
    assert "Workload: 1 fingerprints, 3 executions" in text
    assert "Plans drifting >10x from estimates (1):" in text
    assert "fp_cli [scan]: estimated 2 vs actual 90 (45.0x over 3 runs)" in text

    from repro.obs.report import main

    path = tmp_path / "report.json"
    path.write_text(json.dumps({"ok": True, "report": report}))
    assert main(["--input", str(path)]) == 0
    assert "fp_cli" in capsys.readouterr().out
    assert main(["--input", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["drifting_plans"]


# ----------------------------------------------------------------------
# wire ops
# ----------------------------------------------------------------------
def test_workload_and_report_wire_ops():
    import socket

    from repro.server import QueryServer

    udb = without_indexes(_certain_udb([(i, i % 11) for i in range(300)]))
    server = QueryServer(udb, workers=2)
    handle = server.serve_tcp()
    try:
        with socket.create_connection(handle.address, timeout=10) as sock:
            stream = sock.makefile("rwb")

            def rpc(**request):
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                return json.loads(stream.readline())

            for v in (3, 4, 3):
                answer = rpc(op="query", sql=f"possible (select a from r where b = {v})")
                assert answer["ok"]

            workload = rpc(op="workload")
            assert workload["ok"]
            assert workload["workload"][0]["calls"] == 3
            assert "predicates" not in workload["workload"][0]
            assert rpc(op="workload", limit=0)["workload"] == []

            report = rpc(op="report")
            assert report["ok"]
            assert report["report"] == {
                "drifting_plans": [],  # b = ? is estimated within 10x
                "history": {"fingerprints": 1, "executions": 3},
            }
    finally:
        handle.close()
        server.close()


def test_slowlog_entries_carry_fingerprint_and_plan_key():
    from repro.obs import slow_queries

    udb = _certain_udb([(i, i % 7) for i in range(50)])
    sql = "possible (select a from r where b = 5)"
    execute_sql(sql, udb)
    entries = [e for e in slow_queries() if e.get("attrs", {}).get("sql") == sql]
    assert entries, "the slowlog ring must keep the query's trace"
    attrs = entries[0]["attrs"]
    assert attrs["fingerprint"] == fingerprint_sql(sql)
    assert attrs["plan_key"]
