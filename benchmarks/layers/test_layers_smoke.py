"""Smoke test of the layered benchmark: every workload at toy size.

In-process (the servers are threads of this process, not pinned
children), TPC-H scale 0.0005, 200 event rows, a cycle or two each.  It
checks the benchmark's own contract: every metric ``BENCHMARK.json``
declares is measured on every workload, with its declared unit and a
finite value; answers are correct; the span dump is well-formed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

_spec = importlib.util.spec_from_file_location("layers_run", HERE / "run.py")
layers_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers_run)

from layer_child import Served  # noqa: E402
from layer_trace import validate_spans  # noqa: E402
from layer_workloads import WORKLOADS  # noqa: E402

TOY_SCALE = 0.0005
TOY_EVENTS = 200
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
ENV = {"git_sha": "test", "python": "", "nproc": 0, "cpu_model": "", "affinity": {}}


class _Shared:
    """A server several runs share: a run's ``close()`` must not stop it."""

    def __init__(self, served: Served):
        self._served = served

    def __getattr__(self, name):
        return getattr(self._served, name)

    def close(self) -> None:
        pass


@pytest.fixture(scope="module")
def start_server():
    """``start_server(dataset)``: the read-only TPC-H server is built once;
    every run gets a fresh events server, because ingest cycles write."""
    opened = []
    tpch = []

    def start(dataset: str):
        if dataset == "tpch" and tpch:
            return tpch[0]
        served = Served(dataset, TOY_SCALE, TOY_EVENTS)
        opened.append(served)
        if dataset == "tpch":
            tpch.append(_Shared(served))
            return tpch[0]
        return served

    yield start
    for served in opened:
        served.close()


@pytest.fixture(autouse=True)
def toy_size(monkeypatch, tmp_path):
    monkeypatch.setattr(layers_run, "RESULTS", tmp_path)
    monkeypatch.setattr(WORKLOADS["point_prepared"], "lookups_per_cycle", 20)
    monkeypatch.setattr(WORKLOADS["point_adhoc"], "lookups_per_cycle", 20)


def _check_section(section, outcome, result):
    assert outcome.correct, outcome.failures
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    # every declared metric, once, under its declared unit
    assert list(result["metrics"]) == [m["name"] for m in section]
    for declared in section:
        assert outcome.metrics[declared["name"]].unit == declared["unit"], declared["name"]
    for name, (value, unit, n) in outcome.metrics.items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert math.isfinite(value), name
        assert unit, name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name, start_server, tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    outcome = layers_run.run_end_to_end(
        name, 1, 1, None, TOY_SCALE, TOY_EVENTS, setups=1, start_server=start_server
    )
    result = layers_run.report(name, 1, 0, outcome, ENV, (0.0, 0.0), record=False)
    _check_section(SPEC["end_to_end"], outcome, result)

    # four cycles: the traced half needs a recorded and an unrecorded one
    outcome = layers_run.run_traced_layers(
        name, 1, 4, None, TOY_SCALE, TOY_EVENTS, start_server=start_server
    )
    result = layers_run.report(name, 1, 1, outcome, ENV, (0.0, 0.0), record=False)
    _check_section(SPEC["per_layer"], outcome, result)

    spans = json.loads((tmp_path / f"trace_{name}.json").read_text())
    assert spans and validate_spans(spans) == []
    assert {s["name"] for s in spans if s["parent"] is None} == {"request", "replay"}
