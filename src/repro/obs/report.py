"""Advisory index report: turn workload history into ranked advice.

A pure-function analyzer over a :func:`repro.obs.workload.workload_snapshot`
that emits:

* **index recommendations** — ranked multi-column hash indexes over the
  equality columns a repeated, sequentially-scanned fingerprint filters
  on, and single-column sorted indexes for its range columns — exactly
  the shapes the planner's access-path selection can use (eq-prefix
  multi-column hash probes; sorted ranges bound on the leading column),
  expressed as ready-to-run ``CREATE INDEX`` statements against the
  representation relations; and
* **drifting plans** — fingerprints whose optimizer estimate diverged
  more than 10x from observed actuals: the workload history records
  estimate vs actual per fingerprint on every execution, with the SQL
  attached.

Recommend-only in this PR: nothing here builds an index or re-plans a
query; the output is a tested signal for the next PR to act on.  Served
by the TCP ``report`` wire op and renderable from the command line::

    python -m repro.obs.report --host 127.0.0.1 --port 7878
    python -m repro.obs.report --input report.json
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .workload import workload_snapshot

__all__ = ["advisory_report", "render_text", "main"]

#: Executions below this never generate a recommendation (one-off queries
#: are not a workload).
MIN_CALLS = 2

#: Estimate/actual divergence that flags a plan for re-optimization.
DRIFT_THRESHOLD = 10.0

#: Operators a hash index serves (equality probes).
_EQ_OPS = ("=",)
#: Operators a sorted index serves (leading-column range scans).
_RANGE_OPS = ("<", "<=", ">", ">=", "between")


def _index_name(relation: str, columns: Sequence[str], kind: str) -> str:
    return f"idx_adv_{relation}_{'_'.join(columns)}_{kind}"


def _recommendation(
    entry: Mapping[str, Any],
    relation: str,
    columns: List[str],
    kind: str,
    predicates: List[Mapping[str, Any]],
) -> Dict[str, Any]:
    # rank by time the fingerprint spent scanning: calls alone would rank
    # a cheap hot point query above a slow scan the index actually fixes
    score = float(entry.get("total_ms") or entry["calls"])
    return {
        "relation": relation,
        "columns": columns,
        "kind": kind,
        "statement": (
            f"CREATE INDEX {_index_name(relation, columns, kind)} "
            f"ON {relation} ({', '.join(columns)}) USING {kind.upper()}"
        ),
        "score": score,
        "evidence": {
            "fingerprint": entry["fingerprint"],
            "sql": entry.get("sql"),
            "calls": entry["calls"],
            "cost_class": entry.get("cost_class"),
            "predicates": predicates,
            "access_paths": entry.get("access_paths", {}),
            "mean_ms": entry.get("mean_ms"),
            "estimate_drift": entry.get("max_drift", 1.0),
        },
    }


def _entry_recommendations(entry: Mapping[str, Any]) -> List[Dict[str, Any]]:
    access = entry.get("access_paths") or {}
    if not access.get("seq_scan"):
        return []  # every scan is already index-served
    by_relation: Dict[str, List[Mapping[str, Any]]] = {}
    for predicate in entry.get("predicates") or ():
        relation = predicate.get("relation")
        if relation:
            by_relation.setdefault(relation, []).append(predicate)
    out: List[Dict[str, Any]] = []
    for relation, predicates in sorted(by_relation.items()):
        # most-frequently-filtered columns first: that order is the index
        # column order, so the hottest column leads the eq prefix
        eq = sorted(
            (p for p in predicates if p["op"] in _EQ_OPS),
            key=lambda p: (-p["count"], p["column"]),
        )
        ranges = sorted(
            (p for p in predicates if p["op"] in _RANGE_OPS),
            key=lambda p: (-p["count"], p["column"]),
        )
        eq_columns: List[str] = []
        for p in eq:
            if p["column"] not in eq_columns:
                eq_columns.append(p["column"])
        if eq_columns:
            out.append(
                _recommendation(entry, relation, eq_columns, "hash", predicates)
            )
        if ranges:
            # sorted indexes bound ranges on the leading column only, so
            # recommend a single-column index on the hottest range column
            out.append(
                _recommendation(
                    entry, relation, [ranges[0]["column"]], "sorted", predicates
                )
            )
    return out


def advisory_report(
    history: Optional[List[Mapping[str, Any]]] = None,
    min_calls: int = MIN_CALLS,
    drift_threshold: float = DRIFT_THRESHOLD,
) -> Dict[str, Any]:
    """The advisory report as a JSON-ready dict (pure over its input).

    ``history`` defaults to the live workload snapshot; pass an explicit
    list to analyze a saved one (the function reads nothing else).
    """
    if history is None:
        history = workload_snapshot()

    merged: Dict[Any, Dict[str, Any]] = {}
    for entry in history:
        if entry["calls"] < min_calls:
            continue
        for rec in _entry_recommendations(entry):
            key = (rec["relation"], tuple(rec["columns"]), rec["kind"])
            existing = merged.get(key)
            if existing is None:
                rec["supporting_fingerprints"] = [rec["evidence"]["fingerprint"]]
                merged[key] = rec
            else:
                # several fingerprints wanting one index strengthen it
                existing["score"] += rec["score"]
                existing["supporting_fingerprints"].append(
                    rec["evidence"]["fingerprint"]
                )
    recommendations = sorted(merged.values(), key=lambda r: -r["score"])
    for rank, rec in enumerate(recommendations, start=1):
        rec["rank"] = rank

    drifting: List[Dict[str, Any]] = []
    for entry in history:
        if entry.get("max_drift", 1.0) > drift_threshold:
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
        "recommendations": recommendations,
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
    """A human-readable rendering of an advisory report."""
    lines: List[str] = []
    history = report.get("history", {})
    lines.append(
        "Workload: "
        f"{history.get('fingerprints', 0)} fingerprints, "
        f"{history.get('executions', 0)} executions"
    )
    recommendations = report.get("recommendations", [])
    lines.append("")
    lines.append(f"Index recommendations ({len(recommendations)}):")
    if not recommendations:
        lines.append("  (none — no repeated sequentially-scanned predicates)")
    for rec in recommendations:
        evidence = rec.get("evidence", {})
        lines.append(f"  #{rec.get('rank')} [{rec['score']:.1f}] {rec['statement']}")
        lines.append(
            "      why: "
            f"fingerprint {evidence.get('fingerprint')} × {evidence.get('calls')} calls, "
            f"mean {evidence.get('mean_ms', 0) or 0:.2f} ms, "
            f"paths {evidence.get('access_paths')}"
        )
        predicates = ", ".join(
            f"{p['column']} {p['op']} (×{p['count']})"
            for p in evidence.get("predicates", [])
        )
        if predicates:
            lines.append(f"      predicates: {predicates}")
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
    """``python -m repro.obs.report`` — render an advisory report."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Render the workload advisory index report.",
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
        if "report" in report and "recommendations" not in report:
            report = report["report"]
    elif args.host:
        report = _fetch_report(args.host, args.port)
    else:
        report = advisory_report()  # the in-process history
    print(json.dumps(report, indent=2, default=str) if args.json else render_text(report))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())
