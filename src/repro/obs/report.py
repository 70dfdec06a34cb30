"""Drift report: which plans the optimizer mis-estimated, from the history.

A pure-function analyzer over a :func:`repro.obs.workload.workload_snapshot`
that emits **drifting plans** — fingerprints whose optimizer estimate
diverged more than 10x from observed actuals: the workload history
records estimate vs actual per fingerprint on every execution (the worst
operator's ratio, not the root's), with the SQL attached.

It reads measurements and nothing else; it does not guess at the index
catalog.  Served by the TCP ``report`` wire op and renderable from the
command line::

    python -m repro.obs.report --host 127.0.0.1 --port 7878
    python -m repro.obs.report --input report.json
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .workload import workload_snapshot

__all__ = ["advisory_report", "render_text", "main"]

#: Estimate/actual divergence that flags a plan for re-optimization.
DRIFT_THRESHOLD = 10.0


def advisory_report(
    history: Optional[List[Mapping[str, Any]]] = None,
    min_calls: int = 1,
    drift_threshold: float = DRIFT_THRESHOLD,
) -> Dict[str, Any]:
    """The drift report as a JSON-ready dict (pure over its input).

    ``history`` defaults to the live workload snapshot; pass an explicit
    list to analyze a saved one (the function reads nothing else).  A
    fingerprint executed fewer than ``min_calls`` times is not flagged.
    """
    if history is None:
        history = workload_snapshot()

    drifting: List[Dict[str, Any]] = []
    for entry in history:
        if entry["calls"] >= min_calls and entry.get("max_drift", 1.0) > drift_threshold:
            drifting.append(
                {
                    "fingerprint": entry["fingerprint"],
                    "sql": entry.get("sql"),
                    "cost_class": entry.get("cost_class"),
                    "estimated_rows": entry.get("estimated_rows"),
                    "actual_rows": entry.get("actual_rows"),
                    "drift": entry.get("max_drift"),
                    "drift_runs": entry.get("drift_runs"),
                    "calls": entry["calls"],
                }
            )
    drifting.sort(key=lambda d: -(d["drift"] or 0))

    return {
        "drifting_plans": drifting,
        "history": {
            "fingerprints": len(history),
            "executions": sum(entry["calls"] for entry in history),
        },
    }


# ----------------------------------------------------------------------
# rendering / CLI
# ----------------------------------------------------------------------
def render_text(report: Mapping[str, Any]) -> str:
    """A human-readable rendering of a drift report."""
    lines: List[str] = []
    history = report.get("history", {})
    lines.append(
        "Workload: "
        f"{history.get('fingerprints', 0)} fingerprints, "
        f"{history.get('executions', 0)} executions"
    )
    drifting = report.get("drifting_plans", [])
    lines.append("")
    lines.append(f"Plans drifting >10x from estimates ({len(drifting)}):")
    if not drifting:
        lines.append("  (none)")
    for d in drifting:
        lines.append(
            f"  {d.get('fingerprint')} [{d.get('cost_class')}]: "
            f"estimated {d.get('estimated_rows')} vs actual {d.get('actual_rows')} "
            f"({(d.get('drift') or 0):.1f}x over {d.get('drift_runs')} runs)"
        )
    return "\n".join(lines)


def _fetch_report(host: str, port: int) -> Dict[str, Any]:
    """Ask a running query server for its report over the wire."""
    import socket

    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(json.dumps({"op": "report"}).encode() + b"\n")
        with sock.makefile("rb") as stream:
            line = stream.readline()
    response = json.loads(line)
    if not response.get("ok"):
        raise RuntimeError(f"server refused report: {response.get('error')}")
    return response["report"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs.report`` — render a drift report."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Render the workload estimate-drift report.",
    )
    parser.add_argument("--host", help="fetch the report from a running server")
    parser.add_argument("--port", type=int, default=7878)
    parser.add_argument(
        "--input", help="read a saved report (or {'report': ...} response) JSON file"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit raw JSON instead of text"
    )
    args = parser.parse_args(argv)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        if "report" in report and "drifting_plans" not in report:
            report = report["report"]
    elif args.host:
        report = _fetch_report(args.host, args.port)
    else:
        report = advisory_report()  # the in-process history
    print(json.dumps(report, indent=2, default=str) if args.json else render_text(report))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())
