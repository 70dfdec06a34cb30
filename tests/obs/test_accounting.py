"""Resource accounting: per-session and per-cost-class tallies."""

from __future__ import annotations

import pytest

from repro.obs import (
    accounting_snapshot,
    record_request,
    record_wait,
    register_session,
    reset_accounting,
    set_enabled,
)
from repro.obs.accounting import SESSION_LIMIT


def test_per_session_and_per_class_tallies():
    sid = register_session()
    record_request(sid, "point", statements=1, rows=10, seconds=0.002)
    record_request(sid, "point", statements=1, rows=5, seconds=0.001)
    record_request(sid, "join", statements=1, rows=100, seconds=0.050)
    record_request(sid, "point", nbytes=2048)

    snapshot = accounting_snapshot()
    point = snapshot["by_class"]["point"]
    assert point["queries"] == 2
    assert point["rows"] == 15
    assert point["bytes_rendered"] == 2048
    assert point["execute_ms"] == pytest.approx(3.0)
    join = snapshot["by_class"]["join"]
    assert join["queries"] == 1 and join["rows"] == 100

    session = snapshot["sessions"][sid]
    assert session["queries"] == 3
    assert session["rows"] == 115
    assert session["bytes_rendered"] == 2048
    assert session["execute_ms"] == pytest.approx(53.0)


def test_unknown_cost_class_tallies_as_cold():
    sid = register_session()
    record_request(sid, None, statements=1, rows=1, seconds=0.001)
    snapshot = accounting_snapshot()
    assert snapshot["by_class"]["cold"]["queries"] == 1


def test_record_wait_is_class_level_only():
    record_wait("heavy", 0.25)
    snapshot = accounting_snapshot()
    assert snapshot["by_class"]["heavy"]["queue_ms"] == pytest.approx(250.0)
    assert snapshot["by_class"]["heavy"]["queries"] == 0
    assert snapshot["sessions"] == {}


def test_sessions_are_lru_bounded():
    ids = [register_session() for _ in range(SESSION_LIMIT + 20)]
    for sid in ids:
        record_request(sid, "point", statements=1, rows=1, seconds=0.0)
    sessions = accounting_snapshot()["sessions"]
    assert len(sessions) == SESSION_LIMIT
    # the oldest twenty fell off; the newest survive
    assert ids[0] not in sessions and ids[-1] in sessions
    # class-level tallies saw every statement regardless of session eviction
    assert accounting_snapshot()["by_class"]["point"]["queries"] == len(ids)


def test_disabled_accounting_records_nothing():
    set_enabled(False)
    try:
        sid = register_session()  # ids still issue (sessions must construct)
        assert isinstance(sid, int)
        record_request(sid, "point", statements=1, rows=10, seconds=0.01)
        record_request(sid, "point", nbytes=512)
        record_wait("point", 0.1)
        snapshot = accounting_snapshot()
        assert snapshot["by_class"] == {} and snapshot["sessions"] == {}
    finally:
        set_enabled(True)


def test_reset_accounting_clears_everything():
    sid = register_session()
    record_request(sid, "scan", statements=1, rows=3, seconds=0.001)
    reset_accounting()
    assert accounting_snapshot() == {"by_class": {}, "sessions": {}}


def test_server_stats_surfaces_accounting():
    from repro.server import QueryServer

    from tests.conftest import build_vehicles_udb

    server = QueryServer(build_vehicles_udb(), workers=2)
    try:
        session = server.session()
        session.execute("possible (select id from r where type = 'Tank')")
        session.execute("possible (select id from r where type = 'Tank')")
        stats = server.stats()
        accounting = stats["accounting"]
        assert sum(t["queries"] for t in accounting["by_class"].values()) == 2
        per_session = accounting["sessions"][session.accounting_id]
        assert per_session["queries"] == 2
        assert per_session["rows"] > 0
        assert per_session["execute_ms"] > 0
    finally:
        server.close()


def test_staged_dml_is_accounted_to_its_session():
    """A transaction's INSERTs stage inline, off the server's executor,
    and still count as the session's statements, like autocommit ones."""
    from repro.server import QueryServer

    from tests.conftest import build_vehicles_udb

    server = QueryServer(build_vehicles_udb(), workers=2)
    try:
        session = server.session()
        session.execute("begin")
        session.execute("insert into r values (90, 'Tank', 'Friend')")
        session.execute("insert into r values (91, 'Jeep', 'Enemy'), (92, 'Tank', 'Enemy')")
        session.execute("commit")
        accounting = server.stats()["accounting"]
        per_session = accounting["sessions"][session.accounting_id]
        assert per_session["queries"] == 2
        assert per_session["rows"] == 3
        assert accounting["by_class"]["dml"]["queries"] == 2
    finally:
        server.close()
