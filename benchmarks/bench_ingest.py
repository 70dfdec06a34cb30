"""Read-write serving throughput — mixed INSERT / point-lookup (TCP).

The write path's headline number: N concurrent clients each run a mixed
workload over the TCP line protocol — one prepared INSERT of a unique
tuple for every three prepared point lookups — against one `QueryServer`.
Lookups are plan-cache hits served by index scans over the segmented
column store; inserts append one segment per statement under the `dml`
admission class and serialize on the write lock, so the benchmark
measures exactly the contention story the log-structured design promises:
writers queue against each other, readers keep streaming.

Each run appends to ``benchmarks/results/BENCH_ingest.json`` (a
timestamped trajectory, like ``BENCH_serve.json``), and the suite gates on

* correctness under concurrency: every insert issued by every client is
  visible at the end (no lost updates, no coalesced writes), and
* no read-only regression: the most recent ``BENCH_serve.json`` run —
  refreshed by ``make bench-serve`` earlier in the same CI job — still
  meets the serving acceptance bar (>= 2x rps at 4 clients on every
  Figure 12 query), so landing the write path cannot quietly degrade the
  read-only numbers.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import socket
import threading
import time

import pytest

from repro.core.descriptor import Descriptor
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.server import QueryServer

from benchmarks.bench_serve import meets_serving_bar
from benchmarks.conftest import RESULTS_DIR

#: Seed rows in the served relation (point lookups draw from these ids).
SEED_ROWS = 2000

CLIENT_COUNTS = (1, 4, 8)
MEASURE_SECONDS = 1.0

#: One INSERT per LOOKUPS_PER_INSERT lookups — a write-heavy OLTP-ish mix.
LOOKUPS_PER_INSERT = 3

LOOKUP_SQL = "possible (select grp from items where id = $1)"
INSERT_SQL = "insert into items values ($1, $2)"


def _items_udb() -> UDatabase:
    """A two-partition relation (``id`` | ``grp``) seeded with certain rows."""
    udb = UDatabase()
    tid = tid_column("items")
    rows = [(i, (i, f"g{i % 17}")) for i in range(SEED_ROWS)]
    p_id = URelation.build(
        [(Descriptor(), t, (v[0],)) for t, v in rows], tid, ["id"]
    )
    p_grp = URelation.build(
        [(Descriptor(), t, (v[1],)) for t, v in rows], tid, ["grp"]
    )
    udb.add_relation("items", ["id", "grp"], [p_id, p_grp])
    udb.build_indexes()
    return udb


def append_ingest_run(payload: dict) -> None:
    """Append a timestamped run to ``BENCH_ingest.json`` (trajectory)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = pathlib.Path(RESULTS_DIR) / "BENCH_ingest.json"
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {
            "benchmark": "read-write serving throughput (TCP, mixed insert/lookup)",
            "runs": [],
        }
    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    }
    entry.update(payload)
    data["runs"].append(entry)
    path.write_text(json.dumps(data, indent=2) + "\n")


class _Client:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def rpc(self, **request):
        self.file.write(json.dumps(request).encode("utf-8") + b"\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self):
        self.sock.close()


def _measure_mixed(address, clients: int, seconds: float, id_base: int):
    """(requests/sec, inserts issued) for ``clients`` concurrent mixed loops.

    Every client inserts ids from its own disjoint range (``id_base`` +
    a per-slot stripe), so the caller can verify that *every* issued
    insert is visible afterwards.
    """
    barrier = threading.Barrier(clients + 1)
    counts = [0] * clients
    inserted: list = [[] for _ in range(clients)]
    errors = []

    def client_loop(slot: int) -> None:
        try:
            client = _Client(address)
            try:
                ok_l = client.rpc(op="prepare", name="lookup", sql=LOOKUP_SQL)
                ok_i = client.rpc(op="prepare", name="add", sql=INSERT_SQL)
                warm = client.rpc(op="execute", name="lookup", params=[slot])
                if not (ok_l["ok"] and ok_i["ok"] and warm["ok"]):
                    raise AssertionError(f"warmup failed: {ok_l} / {ok_i} / {warm}")
                barrier.wait(timeout=60)
                deadline = time.perf_counter() + seconds
                done = 0
                next_id = id_base + slot * 1_000_000
                while time.perf_counter() < deadline:
                    if done % (LOOKUPS_PER_INSERT + 1) == 0:
                        answer = client.rpc(
                            op="execute", name="add", params=[next_id, "fresh"]
                        )
                        if not (answer["ok"] and answer["count"] == 1):
                            raise AssertionError(f"insert failed: {answer}")
                        inserted[slot].append(next_id)
                        next_id += 1
                    else:
                        key = (done * 37) % SEED_ROWS
                        answer = client.rpc(op="execute", name="lookup", params=[key])
                        if not answer["ok"]:
                            raise AssertionError(f"lookup failed: {answer}")
                    done += 1
                counts[slot] = done
            finally:
                client.close()
        except BaseException as error:
            errors.append((slot, repr(error)))
            barrier.abort()

    threads = [
        threading.Thread(target=client_loop, args=(slot,)) for slot in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    started = time.perf_counter()
    for t in threads:
        t.join(timeout=seconds * 20 + 60)
    elapsed = time.perf_counter() - started
    assert not errors, f"client errors: {errors[:3]}"
    all_inserted = [i for slot_ids in inserted for i in slot_ids]
    return sum(counts) / elapsed, all_inserted


def test_ingest_mixed_throughput():
    """rps at 1/4/8 TCP clients on the mixed insert/lookup workload, with
    every issued insert verified visible at the end."""
    udb = _items_udb()
    server = QueryServer(udb, workers=8)
    handle = server.serve_tcp()
    rates = {}
    issued: list = []
    try:
        for round_no, clients in enumerate(CLIENT_COUNTS):
            rps, ids = _measure_mixed(
                handle.address,
                clients,
                MEASURE_SECONDS,
                id_base=SEED_ROWS + round_no * 100_000_000,
            )
            rates[clients] = rps
            issued.extend(ids)
        # correctness gate: no lost updates, no coalesced writes
        check = _Client(handle.address)
        try:
            answer = check.rpc(
                op="query",
                sql=f"possible (select id from items where id >= {SEED_ROWS})",
            )
            assert answer["ok"], answer
            visible = {row[0] for row in answer["rows"]}
        finally:
            check.close()
        missing = set(issued) - visible
        assert not missing, f"lost inserts: {sorted(missing)[:5]} of {len(issued)}"
        stats = server.stats()
        assert stats["admission"]["dml"]["admitted"] >= len(issued)
    finally:
        handle.close()
        server.close()

    payload = {
        "seed_rows": SEED_ROWS,
        "measure_seconds": MEASURE_SECONDS,
        "lookups_per_insert": LOOKUPS_PER_INSERT,
        "rps": {str(c): round(rates[c], 1) for c in CLIENT_COUNTS},
        "inserts": len(issued),
        "executor": stats["executor"],
        "admission": stats["admission"],
    }
    append_ingest_run(payload)
    print("\ningest throughput:", json.dumps(payload["rps"], indent=2))


"""Compaction phase: 5k statements of churn, then VACUUM, then the gate —
post-compaction point lookups must be within 1.2x of a fresh load of the
same logical content.  A compacted stack that stays slower than a rebuilt
one would mean compaction is not actually reclaiming the read path."""

CHURN_STATEMENTS = 5_000
LOOKUP_TRIALS = 5
LOOKUPS_PER_TRIAL = 300


def _median_lookup_seconds(udb, keys) -> float:
    """Best-of-trials median latency of one prepared point lookup."""
    from repro.sql import prepare

    prepared = prepare(LOOKUP_SQL, udb)
    prepared.run(keys[0])  # warm: plan once, fault in indexes
    best = float("inf")
    for _ in range(LOOKUP_TRIALS):
        samples = []
        for i in range(LOOKUPS_PER_TRIAL):
            key = keys[i % len(keys)]
            started = time.perf_counter()
            prepared.run(key)
            samples.append(time.perf_counter() - started)
        samples.sort()
        best = min(best, samples[len(samples) // 2])
    return best


def test_compaction_restores_point_lookup_latency():
    """Churn -> VACUUM returns every partition to one clean segment, and
    point lookups on the compacted store run within 1.2x of a fresh load
    of identical content."""
    from repro.sql import execute_sql, prepare

    udb = _items_udb()
    add = prepare(INSERT_SQL, udb)
    bump = prepare("update items set grp = $2 where id = $1", udb)
    drop = prepare("delete from items where id = $1", udb)
    next_id = SEED_ROWS
    live_churn: list = []
    for i in range(CHURN_STATEMENTS):
        step = i % 5
        if step == 3 and live_churn:
            bump.run(live_churn[i % len(live_churn)], f"g{i % 17}")
        elif step == 4 and len(live_churn) > 1:
            drop.run(live_churn.pop(i % len(live_churn)))
        else:
            add.run(next_id, f"g{next_id % 17}")
            live_churn.append(next_id)
            next_id += 1

    health = udb.segment_health(publish=False)
    segments_before = sum(h["segment_count"] for h in health.values())
    assert segments_before > len(health), "churn produced no segment stacks"

    started = time.perf_counter()
    result = udb.compact()
    vacuum_seconds = time.perf_counter() - started
    for name, h in udb.segment_health(publish=False).items():
        assert h["segment_count"] == 1, f"{name} still stacked: {h}"
        assert h["deleted_ratio"] == 0.0, f"{name} still carries dead rows: {h}"

    # the fresh-load twin: identical logical content, built in one shot
    rows = execute_sql("possible (select id, grp from items)", udb).rows
    fresh = UDatabase()
    tid = tid_column("items")
    fresh.add_relation(
        "items",
        ["id", "grp"],
        [
            URelation.build(
                [(Descriptor(), t, (row[0],)) for t, row in enumerate(rows)],
                tid,
                ["id"],
            ),
            URelation.build(
                [(Descriptor(), t, (row[1],)) for t, row in enumerate(rows)],
                tid,
                ["grp"],
            ),
        ],
    )
    fresh.build_indexes()

    keys = [row[0] for row in rows[:: max(1, len(rows) // 97)]]
    for key in keys[:5]:  # same answers before timing anything
        compacted_answer = sorted(map(tuple, execute_sql(LOOKUP_SQL, udb, params=[key]).rows))
        fresh_answer = sorted(map(tuple, execute_sql(LOOKUP_SQL, fresh, params=[key]).rows))
        assert compacted_answer == fresh_answer, key

    compacted_s = _median_lookup_seconds(udb, keys)
    fresh_s = _median_lookup_seconds(fresh, keys)
    ratio = compacted_s / max(fresh_s, 1e-9)
    assert ratio <= 1.2, (
        f"post-compaction lookups are {ratio:.2f}x a fresh load "
        f"({compacted_s * 1e6:.1f}us vs {fresh_s * 1e6:.1f}us)"
    )

    payload = {
        "phase": "compaction",
        "churn_statements": CHURN_STATEMENTS,
        "segments_before_vacuum": segments_before,
        "rows_dropped": result.rows_dropped,
        "vacuum_seconds": round(vacuum_seconds, 4),
        "lookup_median_us": {
            "compacted": round(compacted_s * 1e6, 2),
            "fresh_load": round(fresh_s * 1e6, 2),
        },
        "latency_ratio": round(ratio, 3),
        "gate": "<= 1.2x fresh load",
    }
    append_ingest_run(payload)
    print("\ncompaction gate:", json.dumps(payload, indent=2))


def test_read_only_serving_numbers_did_not_regress():
    """No-regression gate on the read-only numbers: the latest
    ``BENCH_serve.json`` run (refreshed by ``make bench-serve`` earlier in
    the same CI job) must still meet the serving acceptance bar."""
    path = pathlib.Path(RESULTS_DIR) / "BENCH_serve.json"
    if not path.exists():
        pytest.skip("no BENCH_serve.json baseline; run make bench-serve first")
    runs = json.loads(path.read_text())["runs"]
    assert runs, "BENCH_serve.json holds no runs"
    latest = runs[-1]
    for name, numbers in latest["queries"].items():
        assert meets_serving_bar(numbers), (
            f"read-only serving regressed: {name} is {numbers['speedup_4v1']}x "
            f"at 4 clients in the latest run ({latest['timestamp']})"
        )
