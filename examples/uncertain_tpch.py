#!/usr/bin/env python
"""Querying a generated uncertain TPC-H database (the Section 6 pipeline).

Builds an uncertain TPC-H instance with the paper's generator parameters
(scale s, uncertainty ratio x, correlation z), reports the Figure 9-style
database characteristics, runs the paper's queries Q1-Q3, and prints the
physical plan a request for Q2 runs (cf. Figure 13).

Run:  python examples/uncertain_tpch.py [scale] [x] [z]
e.g.  python examples/uncertain_tpch.py 0.002 0.05 0.25
"""

import sys
import time

from repro.core import execute_query
from repro.core.translate import translate
from repro.relational import explain, optimize
from repro.relational.planner import plan_physical
from repro.tpch import ALL_QUERIES, q2_inner
from repro.ugen import generate_uncertain


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.001
    x = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    z = float(sys.argv[3]) if len(sys.argv) > 3 else 0.25

    print(f"generating uncertain TPC-H (scale={scale}, x={x}, z={z}) ...")
    start = time.perf_counter()
    bundle = generate_uncertain(scale=scale, x=x, z=z, seed=42)
    print(f"generated in {time.perf_counter() - start:.1f}s\n")

    # ------------------------------------------------------------------
    # Figure 9-style characteristics
    # ------------------------------------------------------------------
    print("database characteristics (cf. Figure 9):")
    print(f"  uncertain fields:          {bundle.uncertain_field_count}")
    print(f"  variables:                 {bundle.variable_count}")
    print(f"  represented worlds:        10^{bundle.log10_worlds():.1f}")
    print(f"  max local worlds/variable: {bundle.max_local_worlds()}")
    print(f"  representation rows:       {bundle.representation_rows()}")
    print(f"  one-world rows:            {bundle.one_world_rows()}")
    print(f"  size ratio (rows/fields):  {bundle.size_ratio():.2f}\n")

    # ------------------------------------------------------------------
    # the paper's queries
    # ------------------------------------------------------------------
    print("running Q1-Q3 (Figure 8):")
    for label, wrapped, _inner in ALL_QUERIES:
        start = time.perf_counter()
        answer = execute_query(wrapped(), bundle.udb)
        elapsed = time.perf_counter() - start
        print(f"  {label}: {len(answer):6d} possible tuples in {elapsed:6.2f}s")

    # ------------------------------------------------------------------
    # the Figure 13 plan
    # ------------------------------------------------------------------
    print("\nphysical plan for Q2 (cf. Figure 13):")
    translated = translate(q2_inner(), bundle.udb)
    physical = plan_physical(optimize(translated.plan), fuse=True)
    print(explain(physical))


if __name__ == "__main__":
    main()
