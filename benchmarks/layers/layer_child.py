"""The benchmark-owned server: one dataset behind ``QueryServer.serve_tcp``.

Run as a script it is the server child of one workload run: it pins
itself, builds the dataset, starts the TCP frontend and prints one JSON
line with its port and set-up timings.  It then answers control commands,
one JSON object per line on stdin, until ``quit`` or end of input:

    {"cmd": "rusage"}                    -> CPU seconds and peak RSS so far
    {"cmd": "reference", "statements": [[sql, params], ...]}
                                         -> rows from the reference executor

``Served`` is the same server without the process boundary; the smoke
test and the traced run use it directly.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
for path in (str(HERE), str(HERE.parents[1] / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from layer_workloads import EVENT_ROWS, SCALE, build_dataset  # noqa: E402


def reference_rows(udb, sql: str, params: Sequence[Any] = ()) -> List[List[Any]]:
    """A query's rows from the legacy row-at-a-time executor, no indexes.

    This is the reference the served answers are compared with: the same
    optimized logical plan, but none of the served path's columnar
    operators, fused pipelines or index access paths.  (The unoptimized
    plan, ``optimize=False``, is a chain of cross products and does not
    finish on Q1 even at scale 0.0005.)  Values go through the server's
    JSON encoding so that both sides compare as JSON values.
    """
    from repro.core import PreparedQuery
    from repro.sql import parse

    relation = PreparedQuery(parse(sql), udb).run(*params, mode="rows", use_indexes=False)
    return json.loads(json.dumps([list(row) for row in relation.rows], default=str))


def peak_rss_kib() -> int:
    """This process's peak resident set, in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: a child's ``ru_maxrss`` starts at
    its parent's resident size at the fork, so a large parent would show
    up as a large server.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Served:
    """A dataset, the ``QueryServer`` over it and its TCP frontend."""

    def __init__(self, dataset: str, scale: float = SCALE, event_rows: int = EVENT_ROWS):
        from repro.server import QueryServer

        started = time.perf_counter()
        self.udb, self.timings = build_dataset(dataset, scale, event_rows)
        self.server = QueryServer(self.udb, workers=2)
        self.handle = self.server.serve_tcp()
        self.address: Tuple[str, int] = self.handle.address
        #: Construction to listening (the child's parent clocks its own,
        #: which includes the interpreter's start).
        self.setup_s = time.perf_counter() - started

    def rusage(self) -> Dict[str, float]:
        return {"cpu_s": time.process_time(), "peak_rss_mb": peak_rss_kib() / 1024.0}

    def reference(self, statements: Sequence[Sequence[Any]]) -> List[List[List[Any]]]:
        return [reference_rows(self.udb, sql, params) for sql, params in statements]

    def close(self) -> None:
        self.handle.close()
        self.server.close()


def main(argv: Sequence[str]) -> int:
    import argparse
    import os

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--event-rows", type=int, default=EVENT_ROWS)
    parser.add_argument("--cpus", default="", help="comma-separated CPUs to pin to")
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    served = Served(args.dataset, args.scale, args.event_rows)
    try:
        print(json.dumps({"port": served.address[1], **served.timings}), flush=True)
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "quit":
                break
            if command["cmd"] == "rusage":
                answer: Any = served.rusage()
            elif command["cmd"] == "reference":
                answer = served.reference(command["statements"])
            else:
                raise ValueError(f"unknown command {command['cmd']!r}")
            print(json.dumps(answer), flush=True)
    finally:
        served.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
