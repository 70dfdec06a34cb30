"""The served-workload benchmark: end-to-end and per-layer metrics.

One command measures one workload and checks its answers::

    python3 benchmarks/layers/run.py --workload fig12_serve --seed 1 --seconds 8 --trace 0

``--trace 0`` serves the workload from a pinned child process to a pinned
single-connection closed-loop client and prints the end-to-end metrics.
``--trace 1`` serves it again for half the time to read the server's
counters, then runs it in-process under the span recorder and prints the
per-layer metrics.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); everything measured,
including per-operation latencies that ``BENCHMARK.json`` does not
declare, is printed above it and appended to
``results/BENCH_layers.jsonl``.

``--cycles N`` replaces the duration by a fixed number of cycles, so that
two runs do identical work; ``--check-repeat`` uses it to run every
workload twice and compare.  See README.md for the workloads, the metric
glossary and the predicted interactions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from layer_workloads import (  # noqa: E402
    CORRELATION_Z,
    DATA_SEED,
    EVENT_ROWS,
    SCALE,
    UNCERTAINTY_X,
    WORKLOADS,
    Statement,
    Workload,
)

#: Child set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Seed and cycles of the op census the traced run adds (see README).
CENSUS_SEED = 0
CENSUS_CYCLES = 2
#: Workloads whose operations carry op-suffixed per-layer metrics.
CENSUS_WORKLOADS = ("fig12_serve", "point_prepared", "conf_groups", "ingest_mixed")
PINGS = 200
#: ``peak_rss_mb`` is the child's peak when this cycle of the sequence
#: (warm-up included) has completed.
RSS_CYCLE = 8
#: Counters that must repeat exactly between two fixed-work runs.
EXACT_REPEAT = (
    "relational.plancache.hits",
    "relational.plancache.misses",
    "relational.plancache.evictions",
    "relational.plancache.invalidations",
    "relational.plancache.hit_ratio",
    "server.executor.executed",
    "server.executor.coalesced",
    "server.admission.admitted",
    "server.admission.queued",
    "server.admission.shed",
    "core.probability.groups",
    "relational.physical.rows_out",
)
LAYERS = (
    "relational.plancache",
    "relational.optimizer",
    "relational.planner",
    "relational.physical",
    "core.probability",
    "core.translate",
    "core.udatabase",
    "core.persist",
    "core.dml",
    "core.txn",
    "server.session",
    "server.executor",
    "server.admission",
    "server.render",
    "client",
    "trace",
    "ugen",
    "wire",
    "sql",
)

#: The calibration kernel's time on this class of machine at rest.  Every
#: end-to-end timing is scaled to it; see ``speed_factor``.
CALIBRATION_REF_MS = 0.5
_CALIBRATION_DATA = [{"k": i, "v": [str(i)] * 5, "f": i * 1.5} for i in range(300)]

_now = time.perf_counter_ns


def speed_factor() -> float:
    """How much slower than at rest this CPU runs interpreter work now.

    The machine is a VM whose CPU slows by 20-40 % for seconds to minutes
    at a time (a neighbour on the core, not steal: CPU time per request
    rises with it).  A fixed kernel of interpreter work (JSON, dict, sort;
    half a millisecond) run on the measuring CPU tracks those phases, so
    each cycle's timings are divided by the factor measured around it.
    The fastest of three runs keeps a preemption out of the factor.
    """
    best = None
    for _ in range(3):
        started = _now()
        table = {row["k"]: tuple(row["v"]) for row in json.loads(json.dumps(_CALIBRATION_DATA))}
        sorted(table, key=lambda key: -key)
        elapsed = _now() - started
        best = elapsed if best is None or elapsed < best else best
    return best / 1e6 / CALIBRATION_REF_MS


class Metric(NamedTuple):
    value: float
    unit: str
    n: int  # samples behind the value


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def pinned_cpus() -> List[int]:
    """The one CPU (the last) that client and server are both pinned to.

    One connection in a closed loop never has client and server running
    at once, so one CPU loses nothing, and the other CPUs stay free for
    the rest of the machine.  On two CPUs a request pays two cross-CPU
    wake-ups (point-lookup p50 0.58 ms against 0.38 ms here) whose cost
    moves with the hypervisor's mood; unpinned, the scheduler re-places
    the processes mid-run.  See README, noise notes.
    """
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))[-1:]


def environment() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or "unknown",
        "affinity": pinned_cpus(),
    }


def load_average() -> float:
    return os.getloadavg()[0] if hasattr(os, "getloadavg") else float("nan")


# ----------------------------------------------------------------------
# the server child and the client connection
# ----------------------------------------------------------------------
class ChildServer:
    """A pinned ``layer_child.py`` process and its control channel."""

    def __init__(self, dataset: str, scale: float, event_rows: int, cpus: List[int]):
        RESULTS.mkdir(exist_ok=True)
        self._log = open(RESULTS / "child_stderr.log", "w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "layer_child.py"),
                "--dataset",
                dataset,
                "--scale",
                repr(scale),
                "--event-rows",
                str(event_rows),
                "--cpus",
                ",".join(map(str, cpus)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        try:
            ready = self._read()
        except BaseException:
            self.close()
            raise
        #: Child start to listening, as the parent saw it.
        self.setup_s = time.perf_counter() - started
        self.timings = {k: ready[k] for k in ("generate_s", "build_indexes_s")}
        self.address = ("127.0.0.1", ready["port"])

    def _read(self) -> Any:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"the server child exited early; see {RESULTS / 'child_stderr.log'}"
            )
        return json.loads(line)

    def _command(self, **command: Any) -> Any:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._read()

    def rusage(self) -> Dict[str, float]:
        return self._command(cmd="rusage")

    def reference(self, statements: Sequence[Sequence[Any]]) -> List[List[List[Any]]]:
        return self._command(cmd="reference", statements=statements)

    def close(self) -> None:
        process = self.process
        try:
            if process.poll() is None:
                try:
                    process.stdin.write('{"cmd": "quit"}\n')
                    process.stdin.flush()
                except OSError:
                    pass
                try:
                    process.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            process.stdin.close()
            process.stdout.close()
            self._log.close()


def encode(statement: Statement) -> bytes:
    if statement.name is not None:
        request = {"op": "execute", "name": statement.name, "params": statement.params}
    else:
        request = {"op": "query", "sql": statement.sql, "params": statement.params}
    return json.dumps(request).encode("utf-8") + b"\n"


class Client:
    """One TCP connection speaking the newline-JSON protocol."""

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def send(self, line: bytes) -> bytes:
        self.file.write(line)
        self.file.flush()
        return self.file.readline()

    def rpc(self, **request: Any) -> dict:
        payload = json.loads(self.send(json.dumps(request).encode("utf-8") + b"\n"))
        if payload.get("ok") is not True:
            raise RuntimeError(f"{request.get('op')} failed: {payload}")
        return payload

    def prepare(self, name: str, sql: str) -> None:
        self.rpc(op="prepare", name=name, sql=sql)

    def ask(self, statement: Statement) -> dict:
        payload = json.loads(self.send(encode(statement)))
        if payload.get("ok") is not True:
            raise RuntimeError(f"{statement.sql[:80]!r} failed: {payload}")
        return payload

    def close(self) -> None:
        self.file.close()
        self.sock.close()


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Samples:
    """Latencies of one measured phase, per operation and per cycle."""

    def __init__(self) -> None:
        self.op_ns: Dict[str, List[int]] = {}
        self.cycle_ns: List[int] = []
        self.cycle_latency_ns: List[List[int]] = []
        #: Per cycle, the mean of the speed factors measured before and after.
        self.cycle_speed: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def fail(self, message: str) -> None:
        self.failed += 1
        self.first_failure = self.first_failure or message


def serve_cycles(
    client: Client,
    workload: Workload,
    first: int,
    cycles: Optional[int],
    seconds: Optional[float],
    after_cycle: Optional[Callable[[], None]] = None,
) -> Samples:
    """Send cycles ``first, first+1, ...`` one request at a time.

    Stops after ``cycles`` cycles, or after the first whole cycle that
    takes the measured time past ``seconds``.  A request's latency runs
    from the first byte sent to the last response decoded; its check (and
    the ingest model's update) runs outside that, inside the cycle.  The
    machine's speed factor is measured between cycles.
    """
    samples = Samples()
    index = first
    measured = 0
    speed = speed_factor()
    while (index - first) < cycles if cycles is not None else measured < seconds * 1e9:
        requests = workload.cycle(index)
        wire = [[encode(s) for s in request.statements] for request in requests]
        latencies: List[int] = []
        samples.cycle_latency_ns.append(latencies)
        cycle_started = _now()
        for request, lines_out in zip(requests, wire):
            started = _now()
            lines = [client.send(line) for line in lines_out]
            payloads = [json.loads(line) for line in lines]
            elapsed = _now() - started
            samples.attempted += 1
            try:
                ok = request.check(payloads, lines)
            except (KeyError, IndexError, TypeError) as error:
                ok = False
                lines.append(repr(error).encode())
            if ok:
                samples.op_ns.setdefault(request.op, []).append(elapsed)
                latencies.append(elapsed)
            else:
                samples.fail(f"{request.op} in cycle {index}: {lines[-1][:200]!r}")
        cycle_ns = _now() - cycle_started
        samples.cycle_ns.append(cycle_ns)
        speed_before, speed = speed, speed_factor()
        samples.cycle_speed.append((speed_before + speed) / 2)
        measured += cycle_ns
        index += 1
        if after_cycle is not None:
            after_cycle()
    return samples


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def quiet(values: Sequence[float]) -> float:
    """The lower quartile over a run's cycles.

    What the speed factor leaves over is mostly one-sided (a burst inside
    one cycle that the calibration beside it missed), so a low quantile
    over cycles is steadier than their median, and the quartile less
    exposed to one lucky cycle than the minimum.
    """
    return percentile(sorted(values), 0.25)


def latency_metrics(samples: Samples) -> Dict[str, Metric]:
    """End-to-end timings and per-operation latencies of a served phase.

    The end-to-end timings are per-cycle statistics, each divided by its
    cycle's speed factor, taken at the quiet quartile over cycles; the
    same statistics of the raw times are reported under ``raw.``.  Per
    operation, raw and pooled over the run: the median, and as the tail
    the highest percentile that still has ten samples beyond it.
    """
    per_cycle = [sorted(ns / 1e6 for ns in series) for series in samples.cycle_latency_ns]
    kept = [i for i, series in enumerate(per_cycle) if series]
    requests = sum(len(per_cycle[i]) for i in kept)
    cycle_ms = [samples.cycle_ns[i] / 1e6 for i in kept]
    p50 = [statistics.median(per_cycle[i]) for i in kept]
    p95 = [percentile(per_cycle[i], 0.95) for i in kept]
    speed = [samples.cycle_speed[i] for i in kept]
    out = {"calibration.speed_factor": Metric(statistics.median(speed), "ratio", len(speed))}
    for prefix, factor in (("", speed), ("raw.", [1.0] * len(kept))):
        scaled = quiet([ms / f for ms, f in zip(cycle_ms, factor)])
        out[prefix + "throughput_rps"] = Metric(
            requests / len(kept) / (scaled / 1e3), "1/s", len(kept)
        )
        out[prefix + "cycle_ms"] = Metric(scaled, "ms", len(kept))
        out[prefix + "latency_p50_ms"] = Metric(
            quiet([ms / f for ms, f in zip(p50, factor)]), "ms", requests
        )
        out[prefix + "latency_p95_ms"] = Metric(
            quiet([ms / f for ms, f in zip(p95, factor)]), "ms", requests
        )
    for op, series in sorted(samples.op_ns.items()):
        ordered = sorted(ns / 1e6 for ns in series)
        n = len(ordered)
        out[f"client.{op}.n"] = Metric(n, "count", n)
        out[f"client.{op}.p50_ms"] = Metric(statistics.median(ordered), "ms", n)
        if n >= 20:
            out[f"client.{op}.tail_ms"] = Metric(ordered[n - 11], "ms", n)
            out[f"client.{op}.tail_pct"] = Metric(100.0 * (n - 10) / n, "%", n)
    return out


def open_workload(name: str, seed: int, event_rows: int, prepare, ask) -> Workload:
    """A workload ready for cycle 0: statements prepared, facts fetched.

    ``prepare(name, sql)`` and ``ask(statement)`` are the connection's or
    the in-process session's.
    """
    workload = WORKLOADS[name](seed, event_rows)
    for statement, sql in workload.prepared.items():
        prepare(statement, sql)
    workload.start(ask)
    return workload


def warm_up(client, workload, cycles: Optional[int], seconds: Optional[float]) -> Samples:
    """The first tenth of the run (at least one cycle), untimed."""
    if cycles is not None:
        return serve_cycles(client, workload, 0, max(1, math.ceil(cycles / 10)), None)
    return serve_cycles(client, workload, 0, None, seconds / 10)


def end_checks(workload: Workload, ask, reference) -> List[str]:
    """The workload's final checks plus the reference-executor comparison."""
    failures = workload.final_checks(ask)
    statements = workload.reference_statements()
    if statements:
        expected = reference([[s.sql, list(s.params)] for s in statements])
        for statement, rows in zip(statements, expected):
            served = ask(statement)["rows"]
            if sorted(map(repr, served)) != sorted(map(repr, rows)):
                failures.append(
                    f"{statement.sql[:60]!r}: {len(served)} served rows differ from "
                    f"the reference executor's {len(rows)}"
                )
    return failures


class Outcome:
    """What one run reports: metrics, request counts, failures."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Metric] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def count(self, samples: Samples) -> None:
        self.attempted += samples.attempted
        self.failed += samples.failed
        if samples.first_failure:
            self.failures.append(samples.first_failure)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


# ----------------------------------------------------------------------
# --trace 0: the end-to-end run
# ----------------------------------------------------------------------
def run_end_to_end(
    name: str,
    seed: int,
    cycles: Optional[int],
    seconds: Optional[float],
    scale: float = SCALE,
    event_rows: int = EVENT_ROWS,
    setups: int = SETUPS,
    start_server: Optional[Callable[[str], Any]] = None,
) -> Outcome:
    """Serve the workload from a child and measure what a client sees.

    ``start_server(dataset)`` overrides the child process (the smoke test
    serves from a thread of its own process).
    """
    if start_server is None:
        cpus = pinned_cpus()
        if cpus:
            os.sched_setaffinity(0, set(cpus))

        def start_server(dataset: str) -> ChildServer:
            return ChildServer(dataset, scale, event_rows, cpus)

    outcome = Outcome()
    dataset = WORKLOADS[name].dataset
    setup_s = []
    raw_setup_s = []
    server = None
    for _ in range(setups):
        if server is not None:
            server.close()
        speed = speed_factor()
        server = start_server(dataset)
        raw_setup_s.append(server.setup_s)
        setup_s.append(raw_setup_s[-1] / ((speed + speed_factor()) / 2))
    client = None
    try:
        client = Client(server.address)
        workload = open_workload(name, seed, event_rows, client.prepare, client.ask)
        warm = warm_up(client, workload, cycles, seconds)
        outcome.count(warm)
        gc.collect()
        gc.disable()  # the client's own collector must not land in a latency
        usage = [server.rusage()]
        try:
            samples = serve_cycles(
                client,
                workload,
                len(warm.cycle_ns),
                cycles,
                seconds,
                lambda: usage.append(server.rusage()),
            )
        finally:
            gc.enable()
        outcome.count(samples)
        outcome.failures += end_checks(workload, client.ask, server.reference)
    finally:
        if client is not None:
            client.close()
        server.close()
    per_cycle = samples.attempted / len(samples.cycle_ns)
    cycle_cpu_ms = [
        (after["cpu_s"] - before["cpu_s"]) * 1e3 for before, after in zip(usage, usage[1:])
    ]
    # the server's memory grows with the writes it has taken, so its peak
    # is read after a fixed cycle of the sequence, not after a fixed time:
    # a faster server must not look bigger
    at_cycle = min(len(usage) - 1, max(0, RSS_CYCLE + 1 - len(warm.cycle_ns)))
    outcome.metrics = latency_metrics(samples)
    outcome.metrics.update({
        "setup_s": Metric(statistics.median(setup_s), "s", len(setup_s)),
        "raw.setup_s": Metric(statistics.median(raw_setup_s), "s", len(setup_s)),
        "server_cpu_ms_per_req": Metric(
            quiet([ms / f for ms, f in zip(cycle_cpu_ms, samples.cycle_speed)]) / per_cycle,
            "ms",
            len(cycle_cpu_ms),
        ),
        "raw.server_cpu_ms_per_req": Metric(
            quiet(cycle_cpu_ms) / per_cycle, "ms", len(cycle_cpu_ms)
        ),
        "peak_rss_mb": Metric(usage[at_cycle]["peak_rss_mb"], "MB", 1),
    })
    return outcome


# ----------------------------------------------------------------------
# --trace 1: counters from a served phase, then the in-process traced run
# ----------------------------------------------------------------------
def counter_snapshot(stats: dict) -> Dict[str, float]:
    """The exact counters of one ``stats`` response, flattened."""
    admission = stats["admission"].values()
    compactions = stats["metrics"]["counters"].get("compactions_total", {})
    return {
        **{f"relational.plancache.{k}": stats["plan_cache"][k]
           for k in ("hits", "misses", "evictions", "invalidations")},
        **{f"server.executor.{k}": stats["executor"][k] for k in ("executed", "coalesced")},
        **{f"server.admission.{k}": sum(cls[k] for cls in admission)
           for k in ("admitted", "queued", "shed")},
        "core.udatabase.compactions": sum(compactions.values()),
    }


def served_counters(
    name: str,
    seed: int,
    cycles: Optional[int],
    seconds: Optional[float],
    event_rows: int,
    server,
    outcome: Outcome,
) -> Tuple[Dict[str, Metric], Dict[str, float]]:
    """Serve the workload over TCP and read the server's counters around it.

    Returns the counter metrics (per cycle, so that runs of different
    length compare) and the per-operation median latencies, which
    ``wire.roundtrip_ms`` is computed from.
    """
    client = Client(server.address)
    try:
        workload = open_workload(name, seed, event_rows, client.prepare, client.ask)
        warm = warm_up(client, workload, cycles, seconds)
        outcome.count(warm)
        segments: List[int] = []
        deleted: List[int] = []

        def sample_segments() -> None:
            health = client.rpc(op="stats")["stats"]["segment_log"].values()
            segments.append(max(part["segment_count"] for part in health))
            deleted.append(max(part["deleted_rows"] for part in health))

        before = counter_snapshot(client.rpc(op="stats")["stats"])
        samples = serve_cycles(
            client, workload, len(warm.cycle_ns), cycles, seconds, sample_segments
        )
        after = counter_snapshot(client.rpc(op="stats")["stats"])
        outcome.count(samples)
        pings = []
        ping = b'{"op": "ping"}\n'
        for _ in range(PINGS):
            started = _now()
            client.send(ping)
            pings.append((_now() - started) / 1e6)
        outcome.failures += end_checks(workload, client.ask, server.reference)
    finally:
        client.close()
    n = len(samples.cycle_ns)
    metrics = {k: Metric((after[k] - before[k]) / n, "1/cycle", n) for k in after}
    hits = after["relational.plancache.hits"] - before["relational.plancache.hits"]
    misses = after["relational.plancache.misses"] - before["relational.plancache.misses"]
    metrics["relational.plancache.hit_ratio"] = Metric(
        hits / max(1, hits + misses), "ratio", hits + misses
    )
    metrics["core.udatabase.segments_max"] = Metric(max(segments), "count", n)
    metrics["core.udatabase.deleted_rows_max"] = Metric(max(deleted), "count", n)
    metrics["wire.ping_ms"] = Metric(statistics.median(pings), "ms", len(pings))
    tcp_p50 = {op: statistics.median(s) / 1e6 for op, s in samples.op_ns.items()}
    return metrics, tcp_p50


class TracedCycles(NamedTuple):
    recorded_ms: List[float]  # stacked time per recorded cycle
    unrecorded_ms: List[float]  # the same for the cycles run without the recorder
    stacked_ms: Dict[str, List[float]]  # unrecorded stacked time per request, by op
    workload: Workload


def trace_cycles(
    recorder,
    served,
    name: str,
    seed: int,
    event_rows: int,
    cycles: Optional[int],
    seconds: Optional[float],
    phase: str,
) -> TracedCycles:
    """Run a workload in-process under ``recorder``.

    After one untraced warm-up cycle, cycles alternate between recorded
    (every request stacked, then every request replayed layer by layer)
    and unrecorded (stacked only); the two series of stacked time give
    ``trace.overhead_ratio``.  The census (``phase="census"``) records
    every cycle.
    """
    from layer_trace import NullRecorder, replay_request, run_stacked, session_ask

    session = served.server.session()
    workload = open_workload(
        name, seed, event_rows, session.prepare, session_ask(served.server, session)
    )
    null = NullRecorder()
    out = TracedCycles([], [], {}, workload)
    for request in workload.cycle(0, shadow=True):
        run_stacked(null, served, session, request, phase)
    index = 1
    spent = 0
    while (index - 1) < cycles if cycles is not None else spent < seconds * 1e9:
        record = phase == "census" or index % 2 == 1
        active = recorder if record else null
        requests = workload.cycle(index, shadow=True)
        first_id = recorder.request_id + 1
        started = _now()
        stacked = [run_stacked(active, served, session, r, phase) for r in requests]
        if record:
            for offset, request in enumerate(requests):
                replay_request(recorder, served.udb, request, first_id + offset)
        else:
            for request, ns in zip(requests, stacked):
                out.stacked_ms.setdefault(request.op, []).append(ns / 1e6)
        (out.recorded_ms if record else out.unrecorded_ms).append(sum(stacked) / 1e6)
        spent += _now() - started
        index += 1
    return out


def layer_metrics(table, census, own: TracedCycles, tcp_p50: Dict[str, float]) -> Dict[str, Metric]:
    """Per-layer metrics from the spans; ``table`` holds the workload's own
    requests, ``census`` every traced request (the op-suffixed metrics)."""
    from layer_trace import PLANNING_LAYERS

    out: Dict[str, Metric] = {}

    def timing(metric: str, values: Sequence[float], unit: str = "ms") -> None:
        out[metric] = Metric(statistics.median(values), unit, len(values))

    queries = [r for r in table.requests if "relational.physical" in r["layers"]]
    timing("sql.lex_ms", table.durations("sql.lex"))
    timing("sql.parse_ms", [r["layers"]["sql.parse"] - r["layers"]["sql.lex"] for r in queries])
    timing("core.translate.translate_ms", table.durations("core.translate"))
    timing("relational.optimizer.optimize_ms", table.durations("relational.optimizer"))
    timing("relational.planner.plan_ms", table.durations("relational.planner"))
    timing("relational.plancache.lookup_ms", table.durations("relational.plancache.lookup"))
    timing("relational.physical.execute_ms", table.durations("relational.physical"))
    timing("server.session.session_ms", table.durations("server.session"))
    timing("server.render.render_ms", table.durations("server.render"))
    timing("client.decode_ms", table.durations("client.decode"))
    n = len(queries)
    rows_out = sum(r["detail"]["rows_out"] for r in queries)
    rows_scanned = sum(r["detail"]["rows_scanned"] for r in queries)
    out["core.translate.joins_per_query"] = Metric(
        sum(r["detail"]["joins"] for r in queries) / n, "count", n
    )
    out["relational.physical.rows_out"] = Metric(rows_out / n, "count", n)
    out["relational.physical.rows_scanned_per_row_out"] = Metric(
        rows_scanned / max(1, rows_out), "ratio", n
    )
    requests = len(table.requests)
    for key in ("groups", "approx_groups"):
        total = sum(r["attrs"].get(key, 0) for r in table.requests)
        out[f"core.probability.{key}"] = Metric(total / requests, "count", requests)
    timing("server.render.bytes", [r["detail"]["bytes"] for r in table.requests], "B")

    # session overhead: the stacked session time minus the replayed time of
    # the layers this request really ran (planning only on a plan-cache
    # miss, parsing only for a text sent with the query op)
    overheads = []
    for r in table.requests:
        layers = r["layers"]
        if "relational.physical" in layers:
            ran = layers["relational.plancache.lookup"] + layers["relational.physical"]
            if r["attrs"]["plan_misses"]:
                ran += sum(layers[name] for name in PLANNING_LAYERS)
            if r["attrs"]["adhoc"]:
                ran += layers["sql.parse"]
        elif "core.dml" in layers:
            ran = layers["core.dml"]
        elif "core.txn" in layers:
            ran = layers["core.txn"]
        else:
            ran = r["attrs"].get("compact_s", 0.0) * 1e3
        overheads.append(layers["server.session"] - ran)
    timing("server.session.overhead_ms", overheads)

    # per operation of this workload (printed and recorded, not declared):
    # where a served request's time goes, and what a cold plan would add
    for op in sorted({r["op"] for r in table.requests}):
        for metric, span in (
            ("server.session.session_ms", "server.session"),
            ("server.render.render_ms", "server.render"),
            ("client.decode_ms", "client.decode"),
        ):
            timing(f"{metric}.{op}", table.durations(span, op))
        cold = [
            sum(r["layers"][name] for name in ("sql.parse",) + PLANNING_LAYERS)
            for r in queries
            if r["op"] == op
        ]
        if cold:
            timing(f"cold_planning_ms.{op}", cold)
            timing(f"relational.physical.execute_ms.{op}", table.durations("relational.physical", op))

    for op in ("q1", "q2", "q3", "point"):
        timing(f"relational.physical.execute_ms.{op}", census.durations("relational.physical", op))
    for op in ("manygroups", "biglineage", "sampled"):
        timing(
            f"core.probability.conf_ms.{op}",
            [r["attrs"]["conf_s"] * 1e3 for r in census.requests if r["op"] == f"conf_{op}"],
        )
    for op in ("insert", "batch_insert", "update", "delete"):
        timing(f"core.dml.{op}_ms", census.durations("core.dml", op))
    timing("core.txn.commit_ms", census.durations("core.txn.commit", "txn"))
    timing(
        "core.udatabase.compact_ms",
        [r["attrs"]["compact_s"] * 1e3 for r in census.requests if r["op"] == "vacuum"],
    )

    gaps = [
        tcp_p50[op] - statistics.median(series)
        for op, series in own.stacked_ms.items()
        if op in tcp_p50
    ]
    timing("wire.roundtrip_ms", gaps)
    out["trace.overhead_ratio"] = Metric(
        quiet(own.recorded_ms) / quiet(own.unrecorded_ms),
        "ratio",
        len(own.recorded_ms),
    )
    return out


def persist_metrics(served, workload: Workload, outcome: Outcome) -> Dict[str, Metric]:
    """Save and load the events database; re-verify the model on the copy.

    The server has no write-ahead persistence, so an explicit
    ``save_udatabase`` / ``load_udatabase`` round trip is all the
    durability there is to check.
    """
    from layer_trace import session_ask
    from repro.core import load_udatabase, save_udatabase
    from repro.server import QueryServer

    RESULTS.mkdir(exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix="persist_", dir=RESULTS))
    try:
        started = time.perf_counter()
        save_udatabase(served.udb, directory)
        saved = time.perf_counter()
        copy = load_udatabase(directory)
        loaded = time.perf_counter()
        size = sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with QueryServer(copy, workers=1) as reloaded:
        ask = session_ask(reloaded, reloaded.session())
        outcome.failures += [f"after save/load: {f}" for f in workload.final_checks(ask)]
    live = sum(part["live_rows"] for part in served.udb.segment_health(publish=False).values())
    return {
        "core.persist.save_ms": Metric((saved - started) * 1e3, "ms", 1),
        "core.persist.load_ms": Metric((loaded - saved) * 1e3, "ms", 1),
        "core.persist.bytes_per_live_row": Metric(size / max(1, live), "B", live),
    }


def run_traced_layers(
    name: str,
    seed: int,
    cycles: Optional[int],
    seconds: Optional[float],
    scale: float = SCALE,
    event_rows: int = EVENT_ROWS,
    start_server: Optional[Callable[[str], Any]] = None,
) -> Outcome:
    """The per-layer run: served counters, traced cycles, census, persist."""
    from layer_child import Served, reference_rows
    from layer_trace import Recorder, SpanTable, session_ask

    own_server = start_server is None
    cpus = pinned_cpus()
    if own_server and cpus:
        os.sched_setaffinity(0, set(cpus))
    outcome = Outcome()
    half_cycles = None if cycles is None else max(1, cycles // 2)
    half_seconds = None if seconds is None else seconds / 2
    dataset = WORKLOADS[name].dataset
    server = (
        ChildServer(dataset, scale, event_rows, cpus)
        if own_server
        else start_server(dataset)
    )
    try:
        metrics, tcp_p50 = served_counters(
            name, seed, half_cycles, half_seconds, event_rows, server, outcome
        )
    finally:
        if own_server:
            server.close()

    # in-process from here on: both datasets, the workload's own cycles,
    # then the census of every operation that has a per-layer metric
    start = start_server if not own_server else (lambda d: Served(d, scale, event_rows))
    served = {d: start(d) for d in ("tpch", "events")}
    recorder = Recorder()
    try:
        gc.collect()
        gc.disable()
        try:
            own = trace_cycles(
                recorder, served[dataset], name, seed, event_rows, half_cycles, half_seconds, "own"
            )
            ingest = own.workload
            for other in CENSUS_WORKLOADS:
                if other != name:
                    traced = trace_cycles(
                        recorder,
                        served[WORKLOADS[other].dataset],
                        other,
                        CENSUS_SEED,
                        event_rows,
                        CENSUS_CYCLES,
                        None,
                        "census",
                    )
                    if other == "ingest_mixed":
                        ingest = traced.workload
        finally:
            gc.enable()
        metrics.update(
            layer_metrics(SpanTable(recorder.spans, "own"), SpanTable(recorder.spans), own, tcp_p50)
        )
        metrics.update(persist_metrics(served["events"], ingest, outcome))
        tpch = served["tpch"].timings
        metrics["ugen.generate_s"] = Metric(tpch["generate_s"], "s", 1)
        metrics["core.udatabase.build_indexes_s"] = Metric(tpch["build_indexes_s"], "s", 1)
        outcome.failures += end_checks(
            own.workload,
            session_ask(served[dataset].server, served[dataset].server.session()),
            lambda statements: [
                reference_rows(served[dataset].udb, sql, params) for sql, params in statements
            ],
        )
    finally:
        if own_server:
            for server in served.values():
                server.close()
    RESULTS.mkdir(exist_ok=True)
    recorder.dump(RESULTS / f"trace_{name}.json")
    outcome.metrics = metrics
    return outcome


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def layer_of(metric: str, end_to_end: Sequence[str]) -> str:
    if metric in end_to_end:
        return "end_to_end"
    return next((layer for layer in LAYERS if metric.startswith(layer + ".")), "derived")


def report(
    name: str,
    seed: int,
    trace: int,
    outcome: Outcome,
    env: Dict[str, Any],
    loadavg: Tuple[float, float],
    record: bool = True,
) -> dict:
    """Print every metric, append the JSONL records, return the result line."""
    spec = declared()
    section = spec["per_layer" if trace else "end_to_end"]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    print(f"\n== {name}  seed={seed}  trace={trace}  "
          f"attempted={outcome.attempted}  failed={outcome.failed}")
    for metric, (value, unit, n) in sorted(outcome.metrics.items()):
        print(f"{metric:52s} {value:14.6g} {unit:8s} n={n}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    if record:
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / "BENCH_layers.jsonl", "a") as out:
            for metric, (value, unit, n) in sorted(outcome.metrics.items()):
                out.write(json.dumps({
                    "suite": "layers",
                    "case": name,
                    "layer": layer_of(metric, end_to_end),
                    "metric": metric,
                    "unit": unit,
                    "value": value,
                    "n": n,
                    **env,
                    "scale": SCALE,
                    "x": UNCERTAINTY_X,
                    "z": CORRELATION_Z,
                    "data_seed": DATA_SEED,
                    "seed": seed,
                    "trace": trace,
                    "loadavg": list(loadavg),
                    "failed_ratio": outcome.failed / max(1, outcome.attempted),
                }) + "\n")
    missing = [m["name"] for m in section if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"declared metrics were not measured: {missing}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]].value, "unit": m["unit"]}
            for m in section
        },
    }


def run_one(name: str, seed: int, trace: int, cycles: Optional[int], seconds: Optional[float]) -> dict:
    env = environment()
    start_load = load_average()
    if start_load > 0.5:
        print(f"warning: load average {start_load:.2f} > 0.5 at start; timings will be noisy")
    run = run_traced_layers if trace else run_end_to_end
    outcome = run(name, seed, cycles, seconds)
    return report(name, seed, trace, outcome, env, (start_load, load_average()))


def check_repeat(seed: int, names: Sequence[str]) -> int:
    """Run every workload twice with fixed work; compare within the bounds.

    Each run is a process of its own, as the driver starts them.
    """
    spec = declared()
    sets: List[Dict[Tuple[str, str], float]] = [{}, {}]
    correct = True
    for values in sets:
        for name in names:
            for trace in (0, 1):
                run = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                     "--cycles", str(WORKLOADS[name].nominal_cycles), "--trace", str(trace)],
                    stdout=subprocess.PIPE,
                    text=True,
                )
                print(run.stdout, end="")
                result = json.loads(run.stdout.splitlines()[-1])
                correct = correct and run.returncode == 0 and result["correct"]
                for metric, entry in result["metrics"].items():
                    values[(name, metric)] = entry["value"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = 0
    print("\n== check-repeat: first, second, relative gap, bound")
    for (name, metric), first in sorted(sets[0].items()):
        second = sets[1][(name, metric)]
        gap = abs(second - first) / abs(first) if first else float(second != first)
        if metric in bounds:
            verdict = "ok" if gap <= bounds[metric] else "OUT OF BOUND"
            bound = f"{bounds[metric]:.2f}"
        elif metric in EXACT_REPEAT:
            verdict = "ok" if first == second else "NOT IDENTICAL"
            bound = "exact"
        else:
            verdict, bound = "", "-"
        bad += verdict not in ("", "ok")
        print(f"{name:15s} {metric:48s} {first:12.6g} {second:12.6g} {gap:7.3f} {bound:>6s} {verdict}")
    print(f"check-repeat: {bad} out of bound, answers {'correct' if correct else 'WRONG'}")
    return 0 if bad == 0 and correct else 1


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured duration (default: BENCHMARK.json)")
    parser.add_argument("--cycles", type=int, help="fixed work instead of a duration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program's source ({ROOT / 'src' / 'repro'}) is not in this checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.check_repeat:
        return check_repeat(args.seed, names)
    seconds = None
    if args.cycles is None:
        seconds = args.seconds if args.seconds is not None else declared()["run_seconds"]
    result = None
    for name in names:
        result = run_one(name, args.seed, args.trace, args.cycles, seconds)
        print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the in-process traced run plans queries too: pin the hash seed
        # like the server child's, so that plans repeat from run to run
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main(sys.argv[1:]))
