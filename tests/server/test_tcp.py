"""End-to-end tests of the TCP line protocol over real sockets."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.server import AdmissionPolicy, QueryServer

from tests.conftest import build_vehicles_udb


class Client:
    """A minimal line-protocol client (one JSON object per line)."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def rpc(self, **request):
        self.file.write(json.dumps(request).encode("utf-8") + b"\n")
        self.file.flush()
        line = self.file.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def close(self):
        try:
            self.file.write(json.dumps({"op": "close"}).encode("utf-8") + b"\n")
            self.file.flush()
        except OSError:
            pass
        self.sock.close()


@pytest.fixture()
def served():
    udb = build_vehicles_udb()
    server = QueryServer(udb, workers=4)
    handle = server.serve_tcp()
    yield server, handle.address
    handle.close()
    server.close()


def test_ping_query_prepare_execute_stats(served):
    _server, address = served
    client = Client(address)
    try:
        assert client.rpc(op="ping") == {"ok": True, "pong": True}

        answer = client.rpc(
            op="query", sql="possible (select id, faction from r where faction = 'Enemy')"
        )
        assert answer["ok"] and answer["columns"] == ["id", "faction"]
        assert sorted(map(tuple, answer["rows"])) == [
            (2, "Enemy"), (3, "Enemy"), (4, "Enemy"),
        ]

        prepared = client.rpc(
            op="prepare", name="by_type", sql="possible (select id from r where type = $1)"
        )
        assert prepared == {"ok": True, "prepared": "by_type", "parameters": 1}
        tanks = client.rpc(op="execute", name="by_type", params=["Tank"])
        assert sorted(row[0] for row in tanks["rows"]) == [1, 2, 3, 4]
        transports = client.rpc(op="execute", name="by_type", params=["Transport"])
        assert sorted(row[0] for row in transports["rows"]) == [2, 3, 4]

        stats = client.rpc(op="stats")
        assert stats["ok"] and "admission" in stats["stats"]
    finally:
        client.close()


def test_errors_keep_the_connection_alive(served):
    _server, address = served
    client = Client(address)
    try:
        bad = client.rpc(op="query", sql="select broken syntax from")
        assert bad["ok"] is False and bad["kind"] == "error"
        unknown = client.rpc(op="frobnicate")
        assert unknown["ok"] is False
        missing = client.rpc(op="execute", name="never-prepared")
        assert missing["ok"] is False
        # the session survives all three failures
        assert client.rpc(op="ping")["ok"]
    finally:
        client.close()


def test_ddl_over_tcp_returns_an_ack_not_a_table(served):
    """CREATE INDEX must answer with a DDL acknowledgment — not dump the
    indexed relation's rows (Index objects carry a .relation too)."""
    server, address = served
    client = Client(address)
    try:
        created = client.rpc(
            op="query", sql="create index i_tcp on u_r_type (type) using hash"
        )
        assert created["ok"] is True
        assert "rows" not in created and "urelation" not in created
        assert created["result"]  # the index description string
        dropped = client.rpc(op="query", sql="drop index i_tcp")
        assert dropped == {"ok": True, "result": None}
    finally:
        client.close()


def test_sessions_are_per_connection(served):
    _server, address = served
    first = Client(address)
    second = Client(address)
    try:
        first.rpc(op="prepare", name="q", sql="possible (select id from r)")
        assert first.rpc(op="execute", name="q")["ok"]
        # the second connection has its own namespace: no statement "q"
        assert second.rpc(op="execute", name="q")["ok"] is False
    finally:
        first.close()
        second.close()


def test_concurrent_clients_get_correct_answers(served):
    _server, address = served
    expected = {
        "Tank": [1, 2, 3, 4],
        "Transport": [2, 3, 4],
    }
    errors = []

    def client_loop(binding):
        client = Client(address)
        try:
            client.rpc(
                op="prepare", name="q", sql="possible (select id from r where type = $1)"
            )
            for _ in range(20):
                answer = client.rpc(op="execute", name="q", params=[binding])
                got = sorted(row[0] for row in answer["rows"])
                if not answer["ok"] or got != expected[binding]:
                    errors.append((binding, answer))
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(b,))
        for b in ("Tank", "Transport", "Tank", "Transport")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors


def test_overload_is_a_response_not_a_hang():
    """With a zero-length queue and a one-slot class, concurrent cold
    queries shed: the client receives an overloaded response quickly."""
    udb = build_vehicles_udb()
    policy = AdmissionPolicy(limits={"cold": 1}, queue_limit=0, queue_timeout=0.1)
    server = QueryServer(udb, workers=4, coalesce=False)
    server.admission = type(server.admission)(policy)
    handle = server.serve_tcp()
    release = threading.Event()
    original_execute = server.executor.run

    def slow_run(fn, key=None):
        def wrapped():
            release.wait(timeout=10)
            return fn()

        return original_execute(wrapped, key)

    server.executor.run = slow_run
    try:
        blocker = Client(handle.address)
        shed = Client(handle.address)

        results = {}

        def blocked():
            results["blocked"] = blocker.rpc(
                op="query", sql="possible (select id from r)"
            )

        thread = threading.Thread(target=blocked)
        thread.start()
        import time

        time.sleep(0.2)  # the first query holds the only cold slot
        results["shed"] = shed.rpc(op="query", sql="possible (select type from r)")
        release.set()
        thread.join(timeout=10)
        assert results["shed"]["ok"] is False
        assert results["shed"]["kind"] == "overloaded"
        assert results["blocked"]["ok"] is True
        blocker.close()
        shed.close()
    finally:
        release.set()
        handle.close()
        server.close()


def test_dml_over_tcp(served):
    server, address = served
    client = Client(address)
    try:
        ack = client.rpc(
            op="query", sql="insert into r values (9, {'Tank', 'Jeep'}, 'Friend')"
        )
        assert ack["ok"] and ack["dml"] == "INSERT" and ack["count"] == 1
        assert len(ack["variables"]) == 1 and ack["variables"][0].endswith("_type")

        assert client.rpc(
            op="prepare", name="add", sql="insert into r values ($1, $2, $3)"
        ) == {"ok": True, "prepared": "add", "parameters": 3}
        ack = client.rpc(op="execute", name="add", params=[10, "Tank", "Friend"])
        assert ack == {"ok": True, "dml": "INSERT", "count": 1, "variables": []}

        ack = client.rpc(op="query", sql="update r set faction = 'Enemy' where id = 10")
        assert ack == {"ok": True, "dml": "UPDATE", "count": 1, "variables": []}
        ack = client.rpc(op="query", sql="delete from r where id = 9")
        assert ack == {"ok": True, "dml": "DELETE", "count": 1, "variables": []}

        answer = client.rpc(
            op="query", sql="possible (select id, faction from r where id = 10)"
        )
        assert sorted(map(tuple, answer["rows"])) == [(10, "Enemy")]
        stats = client.rpc(op="stats")["stats"]
        assert stats["admission"]["dml"]["admitted"] == 4
    finally:
        client.close()


def test_a_transaction_dies_with_its_connection(served):
    """A client that disconnects mid-transaction leaves nothing behind:
    its staged row is never seen, the next writer of the relation commits
    without a conflict, and no admission class is left waiting."""
    _server, address = served
    quitter = Client(address)
    assert quitter.rpc(op="query", sql="begin")["txn"]["status"] == "open"
    assert quitter.rpc(op="query", sql="insert into r values (50, 'Tank', 'Friend')")["ok"]
    quitter.file.close()
    quitter.sock.close()  # gone without COMMIT or a close op

    other = Client(address)
    try:
        answer = other.rpc(op="query", sql="possible (select id from r where id = 50)")
        assert answer["ok"] and answer["rows"] == []
        assert other.rpc(op="query", sql="begin")["txn"]["status"] == "open"
        ack = other.rpc(op="query", sql="insert into r values (51, 'Jeep', 'Friend')")
        assert ack["ok"] and ack["count"] == 1
        done = other.rpc(op="query", sql="commit")
        assert done["ok"] and done["txn"]["status"] == "committed"
        answer = other.rpc(op="query", sql="possible (select id from r where id >= 50)")
        assert sorted(row[0] for row in answer["rows"]) == [51]
        admission = other.rpc(op="stats")["stats"]["admission"]
        assert admission and all(gate["waiting"] == 0 for gate in admission.values())
    finally:
        other.close()


def test_a_rendered_answer_line_is_pinned_byte_for_byte():
    """An answer's rows are encoded as they are (tuples are JSON arrays):
    the line a client reads for a bare U-relation answer, exactly."""
    server = QueryServer(build_vehicles_udb(), workers=1)
    try:
        result = server.session().execute("select id from r where faction = 'Enemy'")
        assert server.render_result(result) == (
            b'{"ok": true, "columns": ["c1", "w1", "c2", "w2", "tid_r", "id"], '
            b'"rows": [["_t", 0, "x", 1, "c", 3], ["_t", 0, "x", 2, "c", 2], '
            b'["z", 2, "_t", 0, "d", 4]], "urelation": true}\n'
        )
    finally:
        server.close()
