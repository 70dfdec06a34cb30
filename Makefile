# Developer entry points.
#
#   make test        - the tier-1 test suite (what CI must keep green)
#   make bench-smoke - the Figure 12 query-time benchmark at a tiny scale,
#                      including the plan-cache warm-vs-cold and
#                      executor-vs-rows()-reference head-to-heads plus the
#                      observability-overhead gate (obs on vs REPRO_OBS=off
#                      must stay within 5% on Q1/Q2); one command to spot
#                      a perf regression
#   make bench-serve - serving throughput: requests/sec on the Figure 12
#                      queries over the TCP protocol at 1/4/8 client
#                      threads (gates on >= 2x at 4 clients; appends to
#                      benchmarks/results/BENCH_serve.json)
#   make bench-ingest - read-write serving: mixed insert/point-lookup mix
#                      at 1/4/8 clients (verifies every insert landed and
#                      that the latest BENCH_serve read-only numbers still
#                      meet their bar; appends to
#                      benchmarks/results/BENCH_ingest.json)
#   make bench-conf  - confidence computation: vectorized exact kernel vs
#                      the old tuple-at-a-time path (>= 3x gate), approx
#                      within epsilon on >= 95% of seeds, and a heavy
#                      lineage answered under the admission deadline
#                      (appends to benchmarks/results/BENCH_conf.json)
#   make bench-obs   - the workload-intelligence overhead gate: the full
#                      obs pipeline (trace + metrics + fingerprint history
#                      + accounting) vs REPRO_OBS=off on Figure 12 Q1/Q2,
#                      <= 5% (appends to benchmarks/results/BENCH_obs.json)
#   make bench-layers - the repository's declared benchmark (BENCHMARK.json):
#                      five workloads served over TCP, end-to-end metrics
#                      per workload; exits non-zero on a wrong answer
#                      (appends to benchmarks/layers/results/BENCH_layers.jsonl;
#                      see benchmarks/layers/README.md for --trace 1)
#   make plans       - explain() (estimates, nothing timed) of the six
#                      prepared statements the declared benchmark serves, on its own
#                      tpch fixture, into benchmarks/results/fig12_plans.txt:
#                      committed, so a PR that changes a served plan shows
#                      the plan in its diff (CI fails on a stale file)
#   make loc         - source size: `wc -l` over src/repro/**/*.py in total
#                      and for the files ROADMAP.md tracks (the command every
#                      CHANGES.md entry quotes its before/after from)
#   make coverage    - the tier-1 suite under coverage with the CI ratchet
#                      (needs pytest-cov: pip install -r requirements-dev.txt)
#   make bench       - the full benchmark suite (slow)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

#: CI coverage ratchet (percent of src/repro lines the suite must cover).
#: Measured ~91% today; raise as coverage grows, never lower.
COVERAGE_FLOOR ?= 85

#: The files whose size ROADMAP.md tracks beside the src/repro total.
LOC_FILES ?= src/repro/relational/physical.py src/repro/relational/columnar.py src/repro/relational/plancache.py \
	src/repro/core/translate.py src/repro/relational/optimizer.py src/repro/core/udatabase.py src/repro/obs/report.py \
	src/repro/relational/index.py src/repro/core/probability.py src/repro/core/txn.py src/repro/core/dml.py \
	src/repro/server/server.py src/repro/server/session.py src/repro/sql/__init__.py

.PHONY: test plans loc coverage bench-smoke bench-serve bench-ingest bench-conf bench-obs bench-layers bench

test:
	$(PYTHON) -m pytest -x -q

plans:
	$(PYTHON) benchmarks/fig12_plans.py

loc:
	@find src/repro -name '*.py' -exec cat {} + | wc -l | sed 's|$$| src/repro/**/*.py|'
	@wc -l $(LOC_FILES)

coverage:
	$(PYTHON) -m pytest -x -q --cov=src/repro --cov-report=term-missing:skip-covered --cov-fail-under=$(COVERAGE_FLOOR)

bench-smoke:
	REPRO_BENCH_SCALE=0.0005 $(PYTHON) -m pytest benchmarks/bench_fig12_query_times.py -q --benchmark-disable-gc

bench-serve:
	REPRO_BENCH_SCALE=0.001 $(PYTHON) -m pytest benchmarks/bench_serve.py -q

bench-ingest:
	$(PYTHON) -m pytest benchmarks/bench_ingest.py -q

bench-conf:
	$(PYTHON) -m pytest benchmarks/bench_conf.py -q

bench-obs:
	$(PYTHON) -m pytest benchmarks/bench_obs.py -q --benchmark-disable-gc

bench-layers:
	python3 benchmarks/layers/run.py

# bench_*.py does not match pytest's default test-file pattern, so the
# files must be passed explicitly (directory collection finds nothing)
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q
