"""Figure 12 — query evaluation time vs scale, uncertainty, correlation.

The paper's nine log-log diagrams (3 queries x 3 correlation ratios, one
line per uncertainty ratio) show evaluation time growing roughly linearly
with the scale factor and the uncertainty ratio, moderately with the
correlation ratio.

The pytest-benchmark cases time each query at the grid midpoint per
uncertainty ratio; the report regenerates the full 3x3x3 series with two
wall-clock timings per point.  ``first run`` is the first execution of a
fresh plan, once the indexes and kernels are built: translation,
planning and every predicate evaluated, like each of the paper's
PostgreSQL runs - it is the column to compare with the paper's
Figure 12.  ``median time`` is the median of 3 repeats of
the cached plan after a warm-up (the paper uses the median of 4 runs),
whose literal scan and probe filters are answered from the plan's
per-segment predicate cache: what a served repeat costs here, not what
the paper measured.  The points the growth-with-scale assertion compares
(x = 0.01 at the smallest and the largest scale) take the median of
:data:`GATED_REPEATS` repeats instead: a few sub-millisecond runs are
within this machine's noise of each other.
"""

import datetime
import json
import pathlib
import statistics

import pytest

from repro.bench import Table, format_seconds, median_time, timed
from repro.core import execute_query, reference_query
from repro.core.translate import _logical_plan
from repro.relational import evaluate, execute, plan_physical
from repro.relational.expressions import compile_cache_stats, reset_compile_cache
from repro.relational.plancache import plan_cache_stats, reset_plan_cache
from repro.tpch import ALL_QUERIES, q1, q2, q3

from tests.relational.logical import unindexed

from benchmarks.conftest import (
    BASE_SCALE,
    CORRELATIONS,
    RESULTS_DIR,
    SCALES,
    UNCERTAINTIES,
    uncertain_db,
    write_result,
)

QUERIES = {"Q1": q1, "Q2": q2, "Q3": q3}


def optimized_plan(query, udb):
    """The translated, optimized logical plan of ``query`` over ``udb``'s
    catalog: what the executor plans and the reference evaluates."""
    plan, _wrap = _logical_plan(query, udb.catalog(), udb.world_table)
    return plan


#: Config for the access-path (index) head-to-head.  The scale is fixed —
#: not multiplied by ``REPRO_BENCH_SCALE`` — because the comparison only
#: means something when executor work dominates the per-query fixed costs
#: (translation, optimization, planning); index advantages grow with data
#: size.  x is the Figure 12 grid's midpoint uncertainty ratio.
INDEX_BENCH_SCALE = 0.008
INDEX_BENCH_X = 0.01
INDEX_BENCH_Z = 0.25
INDEX_BENCH_PAIRS = 7
#: Pairs of the served-vs-reference head-to-head: fewer, because one
#: reference run of Q3 costs about as much as ten served ones.
REFERENCE_BENCH_PAIRS = 3

#: Config for the plan-cache head-to-head.  Fixed small scale: the cache
#: removes the per-query *fixed* costs (translation + optimization +
#: physical planning), whose relative weight is largest when the executor
#: work is small — which is also the serving-layer regime (many small
#: repeated queries) the cache exists for.
PLAN_BENCH_SCALE = 0.001
PLAN_BENCH_PAIRS = 9

#: Config for the observability-overhead gate.  Warm-cache (executor-only)
#: runs at the access-path scale: per-run work small enough that the
#: fixed per-query obs cost (trace spans, counter bumps, histogram
#: observes) shows up in the ratio, large enough that timings are stable.
OBS_BENCH_PAIRS = 9
OBS_OVERHEAD_CEILING = 1.05


def append_bench_run(kind: str, payload: dict) -> None:
    """Append a timestamped run to ``BENCH_fig12.json`` (trajectory).

    The file accumulates one entry per recorded head-to-head instead of
    being overwritten, so the perf trajectory across PRs stays readable.
    A pre-trajectory file (a single run object) is wrapped as the first
    entry.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = pathlib.Path(RESULTS_DIR) / "BENCH_fig12.json"
    if path.exists():
        data = json.loads(path.read_text())
        if "runs" not in data:  # legacy single-run layout
            legacy = dict(data)
            legacy.setdefault("kind", "index-access-paths")
            data = {"figure": "12 (addenda)", "runs": [legacy]}
    else:
        data = {"figure": "12 (addenda)", "runs": []}
    entry = {
        "kind": kind,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    entry.update(payload)
    data["runs"].append(entry)
    path.write_text(json.dumps(data, indent=2) + "\n")


#: Repeats behind each point the time-series shape assertion compares.
GATED_REPEATS = 25
#: The uncertainty ratio of those points.
GATED_X = 0.01

#: The header of ``fig12_query_times.txt``: which column is the paper's.
FIG12_NOTE = (
    "'first run' is the first execution of a fresh plan over built indexes\n"
    "(translation, planning and every predicate evaluated): compare it with\n"
    "the paper's Figure 12.\n"
    "'median time' is the median of 3 repeats of the cached plan, whose literal\n"
    "predicates are answered from its per-segment cache (of 25 repeats at\n"
    "x = 0.01 on the smallest and the largest scale, the points the\n"
    "growth-with-scale check compares)."
)


def test_fig12_time_series_table(benchmark):
    """Regenerate the Figure 12 series: time(s, x, z) for Q1-Q3."""

    def build():
        table = Table(
            ["query", "z", "x", "scale", "first run", "median time", "answer tuples"],
            title="Figure 12 analogue: query evaluation time",
        )
        times = {}
        for label, builder in QUERIES.items():
            for z in CORRELATIONS:
                for x in UNCERTAINTIES:
                    for scale in SCALES:
                        bundle = uncertain_db(scale, x, z)
                        # indexes and kernels built, then a fresh plan
                        execute_query(builder(), bundle.udb)
                        reset_plan_cache()
                        first, _ = timed(lambda: execute_query(builder(), bundle.udb))
                        gated = x == GATED_X and scale in (SCALES[0], SCALES[-1])
                        elapsed, answer = median_time(
                            lambda: execute_query(builder(), bundle.udb),
                            repeats=GATED_REPEATS if gated else 3,
                        )
                        times[(label, z, x, scale)] = elapsed
                        table.add(
                            label,
                            z,
                            x,
                            scale,
                            format_seconds(first),
                            format_seconds(elapsed),
                            len(answer),
                        )
        write_result("fig12_query_times.txt", FIG12_NOTE + "\n\n" + table.render())
        return times

    times = benchmark.pedantic(build, rounds=1, iterations=1)

    # shape: evaluation time grows with scale (roughly linearly, allow slack)
    for label in QUERIES:
        for z in CORRELATIONS:
            small = times[(label, z, GATED_X, SCALES[0])]
            large = times[(label, z, GATED_X, SCALES[-1])]
            assert large >= small * 0.8  # monotone up to noise
            assert large <= small * 100  # far from quadratic blow-up


@pytest.mark.parametrize("label", ["Q1", "Q2", "Q3"])
@pytest.mark.parametrize("x", UNCERTAINTIES)
def test_fig12_query(benchmark, label, x):
    """Per-query timing at the grid midpoint (one line point of Figure 12)."""
    bundle = uncertain_db(BASE_SCALE, x, 0.25)
    builder = QUERIES[label]
    benchmark.pedantic(
        lambda: execute_query(builder(), bundle.udb), rounds=3, iterations=1
    )


def test_fig12_index_speedup(benchmark):
    """Access paths vs scan-and-hash plans, machine-readable.

    Plans each Figure 12 query's one translated, optimized plan twice:
    over the partitions, whose index definitions give the cost-based
    access paths (tid-index nested-loop joins for the partition merges,
    index scans for selective predicates), and over copies of them that
    list no index definitions (sequential scans and hash joins only), and
    times the executor over each, asserting identical answers.  Runs are interleaved in
    baseline/indexed pairs and the reported median speedup is the median
    of the per-pair ratios — back-to-back runs see the same machine
    state, so drift cancels where a ratio of two independent medians
    would not.  The JSON records the median and best times per mode so
    the perf trajectory is tracked across PRs.
    """
    bundle = uncertain_db(INDEX_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def compare():
        table = Table(
            ["query", "baseline (median)", "indexed (median)", "speedup", "answers"],
            title="Figure 12 addendum: cost-based access paths vs scan-and-hash",
        )
        queries = {}
        for label, builder in QUERIES.items():
            plan = optimized_plan(builder(), bundle.udb)
            scans = plan_physical(unindexed(plan))
            paths = plan_physical(plan)
            answer_base = execute(scans)
            answer_idx = execute(paths)
            assert answer_base == answer_idx  # identical bags, NULL-safe
            base, indexed = [], []
            for _ in range(INDEX_BENCH_PAIRS):
                elapsed, _ = timed(lambda: execute(scans))
                base.append(elapsed)
                elapsed, _ = timed(lambda: execute(paths))
                indexed.append(elapsed)
            entry = {
                "baseline_median_s": statistics.median(base),
                "indexed_median_s": statistics.median(indexed),
                "baseline_best_s": min(base),
                "indexed_best_s": min(indexed),
                "speedup_median": statistics.median(
                    b / i for b, i in zip(base, indexed)
                ),
                "speedup_best": min(base) / min(indexed),
                "answer_rows": len(answer_idx),
                "identical_answers": True,
            }
            queries[label] = entry
            table.add(
                label,
                format_seconds(entry["baseline_median_s"]),
                format_seconds(entry["indexed_median_s"]),
                f"{entry['speedup_median']:.2f}x",
                entry["answer_rows"],
            )
        append_bench_run(
            "index-access-paths",
            {
                "baseline": "the executor over partitions that list no index definitions",
                "config": {
                    "scale": INDEX_BENCH_SCALE,
                    "x": INDEX_BENCH_X,
                    "z": INDEX_BENCH_Z,
                    "seed": 42,
                    "interleaved_pairs": INDEX_BENCH_PAIRS,
                },
                "queries": queries,
            },
        )
        write_result("fig12_index_speedup.txt", table.render())
        return queries

    queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    # the committed BENCH_fig12.json records >=1.3x on Q1 and Q2; keep the
    # in-test floor a notch lower so background load cannot flake the suite
    assert sum(1 for q in queries.values() if q["speedup_median"] >= 1.15) >= 2


def test_fig12_served_vs_reference(benchmark):
    """The executor against the reference (CI gate).

    The served arm is the default (columnar batches, fused
    scan→filter→project pipelines, folded join projections, generated
    probe kernels, cost-based access paths), from the plan cache; the
    reference arm is what the tests and the declared benchmark compare
    answers with (``reference_query``: the same translated, optimized
    logical plan evaluated node by node by ``algebra.evaluate``, with
    interpreted expressions and hashed equi-joins), timed as ``evaluate``
    alone over a plan built once, so it pays no translation or
    optimization.  Answers must be identical bags.  Runs are interleaved in
    reference/served pairs and the reported median speedup is the median
    of per-pair ratios.  The compile cache is measured explicitly: after
    one warm-up execution the second run must generate no code at all
    (``codegen_misses_second_run == 0``).

    The paper's thesis is that translated U-relation queries are fast
    because they run on an efficient conventional engine; the gate holds
    the executor to >= 2x the reference on every query.
    """
    bundle = uncertain_db(INDEX_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def compare():
        table = Table(
            ["query", "reference (median)", "served (median)", "speedup", "answers"],
            title="Figure 12 addendum: the executor vs the reference",
        )
        queries = {}
        for label, builder in QUERIES.items():
            query = builder()
            answer_reference = reference_query(query, bundle.udb)
            plan = optimized_plan(query, bundle.udb)
            # codegen proof: a cold cache misses on the first served run
            # and must not miss again on the second
            reset_compile_cache()
            answer_served = execute_query(query, bundle.udb)
            first = compile_cache_stats()
            execute_query(query, bundle.udb)
            second = compile_cache_stats()
            codegen_misses_second_run = second["misses"] - first["misses"]
            assert answer_reference == answer_served  # identical bags, NULL-safe
            assert sorted(answer_reference.rows, key=repr) == sorted(
                answer_served.rows, key=repr
            )
            slow, served = [], []
            for _ in range(REFERENCE_BENCH_PAIRS):
                elapsed, _ = timed(lambda: evaluate(plan))
                slow.append(elapsed)
                elapsed, _ = timed(lambda: execute_query(query, bundle.udb))
                served.append(elapsed)
            entry = {
                "reference_median_s": statistics.median(slow),
                "served_median_s": statistics.median(served),
                "reference_best_s": min(slow),
                "served_best_s": min(served),
                "speedup_median": statistics.median(
                    r / c for r, c in zip(slow, served)
                ),
                "speedup_best": min(slow) / min(served),
                "answer_rows": len(answer_served),
                "identical_answers": True,
                "codegen_misses_second_run": codegen_misses_second_run,
            }
            queries[label] = entry
            table.add(
                label,
                format_seconds(entry["reference_median_s"]),
                format_seconds(entry["served_median_s"]),
                f"{entry['speedup_median']:.2f}x",
                entry["answer_rows"],
            )
        append_bench_run(
            "served-vs-reference",
            {
                "baseline": "algebra.evaluate of reference_query's optimized logical plan, built once",
                "config": {
                    "scale": INDEX_BENCH_SCALE,
                    "x": INDEX_BENCH_X,
                    "z": INDEX_BENCH_Z,
                    "seed": 42,
                    "interleaved_pairs": REFERENCE_BENCH_PAIRS,
                },
                "queries": queries,
            },
        )
        write_result("fig12_served_vs_reference.txt", table.render())
        return queries

    queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    for entry in queries.values():
        # second-run queries must be codegen-free (the compile cache works)
        assert entry["codegen_misses_second_run"] == 0
        assert entry["speedup_median"] >= 2.0


def test_fig12_plan_cache_speedup(benchmark):
    """Prepared-plan cache: warm (cached plan) vs cold (replan every run).

    The warm arm executes each Figure 12 query from its cached physical
    plan — zero translation/optimization/planning work, proven by the plan
    cache's miss counter staying flat on the second run — while the cold
    arm resets the plan cache before every execution, re-paying the full
    fixed cost.  The cold and the warm answer must each equal the
    reference.  Runs are interleaved in cold/warm pairs and the
    reported median speedup is the median of per-pair ratios.

    CI gates (``make bench-smoke`` fails on either): warm-run planning
    misses must be zero for every query, and the warm median must beat the
    cold median on Q1 and Q2.
    """
    bundle = uncertain_db(PLAN_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def compare():
        table = Table(
            ["query", "cold (median)", "warm (median)", "speedup", "planning misses (2nd run)"],
            title="Figure 12 addendum: prepared-plan cache, warm vs cold",
        )
        queries = {}
        for label, builder in QUERIES.items():
            query = builder()
            # answer proof: the fresh plan and the cached one both answer
            # what the reference does
            answer = reference_query(query, bundle.udb)
            reset_plan_cache()
            assert execute_query(query, bundle.udb) == answer  # cold
            assert execute_query(query, bundle.udb) == answer  # warm
            # planning proof: the second run performs zero planning work
            reset_plan_cache()
            execute_query(query, bundle.udb)
            first = plan_cache_stats()
            execute_query(query, bundle.udb)
            second = plan_cache_stats()
            planning_misses_second_run = second["misses"] - first["misses"]
            # timing: interleaved cold/warm pairs
            cold, warm = [], []
            for _ in range(PLAN_BENCH_PAIRS):
                reset_plan_cache()
                elapsed, _ = timed(lambda: execute_query(query, bundle.udb))
                cold.append(elapsed)
                elapsed, _ = timed(lambda: execute_query(query, bundle.udb))
                warm.append(elapsed)
            entry = {
                "cold_median_s": statistics.median(cold),
                "warm_median_s": statistics.median(warm),
                "cold_best_s": min(cold),
                "warm_best_s": min(warm),
                "speedup_median": statistics.median(
                    c / w for c, w in zip(cold, warm)
                ),
                "speedup_best": min(cold) / min(warm),
                "answer_rows": len(answer),
                "identical_answers_all_modes": True,
                "planning_misses_second_run": planning_misses_second_run,
            }
            queries[label] = entry
            table.add(
                label,
                format_seconds(entry["cold_median_s"]),
                format_seconds(entry["warm_median_s"]),
                f"{entry['speedup_median']:.2f}x",
                planning_misses_second_run,
            )
        append_bench_run(
            "plan-cache",
            {
                "baseline": "cold: plan cache reset before every execution",
                "config": {
                    "scale": PLAN_BENCH_SCALE,
                    "x": INDEX_BENCH_X,
                    "z": INDEX_BENCH_Z,
                    "seed": 42,
                    "interleaved_pairs": PLAN_BENCH_PAIRS,
                },
                "queries": queries,
            },
        )
        write_result("fig12_plan_cache_speedup.txt", table.render())
        return queries

    queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    # hard gate: repeated queries are executor-only
    for entry in queries.values():
        assert entry["planning_misses_second_run"] == 0
    # the warm arm must measurably beat the cold arm where fixed costs
    # matter (Q1/Q2; Q3's six-way join planning is also its biggest win)
    assert queries["Q1"]["speedup_median"] > 1.0
    assert queries["Q2"]["speedup_median"] > 1.0


def test_fig12_obs_overhead(benchmark):
    """Observability must be nearly free: <= 5% on Figure 12 medians.

    Times each query with the obs layer fully engaged — a request trace
    owning the run (spans, per-operator actuals, histogram observe,
    counter bumps) — against the same run with observability disabled
    (``set_enabled(False)``, the ``REPRO_OBS=off`` switch).  Both arms use
    a warm plan cache, so the measured work is executor-only.  A warm
    Q1/Q2 still takes milliseconds, which is where the fixed per-request
    obs cost weighs the *least*; what one served request costs is
    counted by ``tests/obs/test_request_cost.py``, and measured on the
    served point lookup in ``src/repro/obs/README.md``.  Runs interleave
    in off/on pairs; the gate takes ``min(median per-pair ratio, ratio of
    medians)`` so one scheduler hiccup in either estimator cannot flake
    the suite, and answers must be identical in both arms.
    """
    from repro.obs import request_trace, set_enabled

    bundle = uncertain_db(INDEX_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def traced_run(query, label):
        with request_trace(sql=label):
            return execute_query(query, bundle.udb)

    def compare():
        table = Table(
            ["query", "obs off (median)", "obs on (median)", "overhead", "answers"],
            title="Figure 12 addendum: observability overhead, on vs off",
        )
        queries = {}
        for label, builder in QUERIES.items():
            query = builder()
            # warm the plan cache and prove both arms answer identically
            answer_on = traced_run(query, label)
            previous = set_enabled(False)
            try:
                answer_off = traced_run(query, label)
            finally:
                set_enabled(previous)
            assert answer_on == answer_off  # identical bags, NULL-safe
            off, on = [], []
            for _ in range(OBS_BENCH_PAIRS):
                previous = set_enabled(False)
                try:
                    elapsed, _ = timed(lambda: traced_run(query, label))
                finally:
                    set_enabled(previous)
                off.append(elapsed)
                elapsed, _ = timed(lambda: traced_run(query, label))
                on.append(elapsed)
            ratio_of_medians = statistics.median(on) / statistics.median(off)
            median_pair_ratio = statistics.median(
                n / f for n, f in zip(on, off)
            )
            entry = {
                "off_median_s": statistics.median(off),
                "on_median_s": statistics.median(on),
                "off_best_s": min(off),
                "on_best_s": min(on),
                "overhead_ratio_of_medians": ratio_of_medians,
                "overhead_median_pair_ratio": median_pair_ratio,
                "overhead_gated": min(ratio_of_medians, median_pair_ratio),
                "answer_rows": len(answer_on),
                "identical_answers": True,
            }
            queries[label] = entry
            table.add(
                label,
                format_seconds(entry["off_median_s"]),
                format_seconds(entry["on_median_s"]),
                f"{(entry['overhead_gated'] - 1) * 100:+.1f}%",
                entry["answer_rows"],
            )
        append_bench_run(
            "obs-overhead",
            {
                "baseline": "observability disabled (REPRO_OBS=off switch)",
                "config": {
                    "scale": INDEX_BENCH_SCALE,
                    "x": INDEX_BENCH_X,
                    "z": INDEX_BENCH_Z,
                    "seed": 42,
                    "interleaved_pairs": OBS_BENCH_PAIRS,
                },
                "queries": queries,
            },
        )
        write_result("fig12_obs_overhead.txt", table.render())
        return queries

    queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    # CI gate: the full obs layer costs at most 5% on Q1 and Q2
    assert queries["Q1"]["overhead_gated"] <= OBS_OVERHEAD_CEILING
    assert queries["Q2"]["overhead_gated"] <= OBS_OVERHEAD_CEILING
