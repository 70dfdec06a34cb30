"""Admission control: classification, limits, bounded queue, shedding."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.prepared import text_statement
from repro.core.translate import query_cache_key
from repro.relational.plancache import cached_cost_class, cost_class_of
from repro.server import AdmissionController, AdmissionPolicy, Overloaded

from tests.conftest import build_vehicles_udb


class TestController:
    def test_fast_path_admits_and_counts(self):
        controller = AdmissionController()
        with controller.admit("point"):
            pass
        assert controller.stats()["point"]["admitted"] == 1
        assert controller.stats()["point"]["shed"] == 0

    def test_limit_with_empty_queue_sheds_immediately(self):
        controller = AdmissionController(
            AdmissionPolicy(limits={"heavy": 1}, queue_limit=0)
        )
        with controller.admit("heavy"):
            with pytest.raises(Overloaded) as caught:
                with controller.admit("heavy"):
                    pass  # pragma: no cover - never admitted
        assert caught.value.cost_class == "heavy"
        assert controller.stats()["heavy"]["shed"] == 1

    def test_queue_wait_times_out(self):
        controller = AdmissionController(
            AdmissionPolicy(limits={"join": 1}, queue_limit=4, queue_timeout=0.05)
        )
        with controller.admit("join"):
            started = time.perf_counter()
            with pytest.raises(Overloaded):
                with controller.admit("join"):
                    pass  # pragma: no cover
            assert time.perf_counter() - started >= 0.04
        stats = controller.stats()["join"]
        assert stats["queued"] == 1 and stats["shed"] == 1

    def test_queued_request_admits_when_slot_frees(self):
        controller = AdmissionController(
            AdmissionPolicy(limits={"scan": 1}, queue_limit=4, queue_timeout=5.0)
        )
        holding = threading.Event()
        admitted = threading.Event()

        def holder():
            with controller.admit("scan"):
                holding.set()
                admitted.wait(timeout=5)

        def waiter():
            holding.wait(timeout=5)
            with controller.admit("scan"):
                pass

        first = threading.Thread(target=holder)
        second = threading.Thread(target=waiter)
        first.start()
        holding.wait(timeout=5)
        second.start()
        time.sleep(0.05)  # let the waiter queue up
        assert controller.stats()["scan"]["waiting"] == 1
        admitted.set()
        first.join(timeout=5)
        second.join(timeout=5)
        stats = controller.stats()["scan"]
        assert stats["admitted"] == 2 and stats["shed"] == 0 and stats["waiting"] == 0

    def test_slots_release_on_exception(self):
        controller = AdmissionController(
            AdmissionPolicy(limits={"cold": 1}, queue_limit=0)
        )
        with pytest.raises(ValueError):
            with controller.admit("cold"):
                raise ValueError("statement failed")
        with controller.admit("cold"):  # the slot came back
            pass

    def test_unknown_class_gets_the_cold_limit(self):
        controller = AdmissionController(
            AdmissionPolicy(limits={"cold": 1}, queue_limit=0)
        )
        with controller.admit("mystery"):
            with pytest.raises(Overloaded):
                with controller.admit("mystery"):
                    pass  # pragma: no cover


class TestClassification:
    def test_cold_until_cached_then_plan_class(self):
        udb = build_vehicles_udb()
        session = udb.session()
        sql = "possible (select id, type from r where type = 'Tank')"
        prepared, _ = text_statement(sql, udb, True)
        key = query_cache_key(prepared.query, udb)
        assert cached_cost_class(key) is None  # never planned: cold
        session.execute(sql)
        cls = cached_cost_class(key)
        assert cls in ("point", "scan", "join", "heavy")

    def test_cost_class_of_shapes(self):
        from repro.relational.algebra import Join, Scan, Select
        from repro.relational.expressions import col, lit
        from repro.relational.planner import plan_physical
        from repro.relational.relation import Relation

        small = Relation(["a", "b"], [(i, i % 3) for i in range(40)])
        scan_plan = plan_physical(Scan(small, name="t"))
        assert cost_class_of(scan_plan) == "point"  # 40 rows <= point limit
        filtered = plan_physical(Select(Scan(small, name="t"), col("a") < lit(5)))
        assert cost_class_of(filtered) in ("point", "scan")
        join_plan = plan_physical(
            Join(
                Scan(small, name="t", alias="t"),
                Scan(small, name="s", alias="u"),
                col("t.a").eq(col("u.a")),
            ),
        )
        assert cost_class_of(join_plan) == "join"

    def test_heavy_class_for_deep_join_trees(self):
        from repro.relational.algebra import Join, Scan
        from repro.relational.expressions import col
        from repro.relational.planner import plan_physical
        from repro.relational.relation import Relation

        rel = Relation(["a"], [(i,) for i in range(10)])
        plan = Scan(rel, name="r0", alias="x0")
        for i in range(1, 4):
            plan = Join(
                plan, Scan(rel, name=f"r{i}", alias=f"x{i}"), col("x0.a").eq(col(f"x{i}.a"))
            )
        physical = plan_physical(plan)
        assert cost_class_of(physical) == "heavy"
