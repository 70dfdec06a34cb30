"""``make plans``: the served plans of the four benchmark statements.

Writes ``explain()`` - operators and estimates, nothing timed - of Figure
12's Q1-Q3 and of the indexed point lookup, planned on the declared
benchmark's own ``tpch`` fixture (``benchmarks/layers/layer_workloads``),
to ``benchmarks/results/fig12_plans.txt``.  The file is committed, so a
change that moves a served plan shows the plan in its diff, as
``fig13_q2_plan.txt`` does for Figure 13; CI regenerates it and fails on a
difference.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "layers")]

from layer_workloads import FIG12, POINT_SQL, build_dataset  # noqa: E402

from repro.core.translate import explain_query  # noqa: E402
from repro.sql import parse  # noqa: E402

TARGET = ROOT / "benchmarks" / "results" / "fig12_plans.txt"


def main() -> None:
    udb, _timings = build_dataset("tpch")
    statements = {**FIG12, "point": POINT_SQL.format(key="$1")}
    plans = [
        f"-- {name}: {sql}\n{explain_query(parse(sql), udb)}\n"
        for name, sql in statements.items()
    ]
    TARGET.write_text("\n".join(plans))
    print(f"wrote {TARGET.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
