"""Shared fixtures and oracles for the test suite.

The central correctness oracle: for any positive query Q and U-relational
database U,

    poss(Q)(U)    ==  union over worlds w of Q(w)
    certain(Q)(U) ==  intersection over worlds w of Q(w)

computed by brute-force world enumeration (exponential, used on small
world-sets only).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import pytest

from repro.core import (
    Descriptor,
    UDatabase,
    UQuery,
    URelation,
    WorldTable,
    evaluate_in_world,
    translate,
)
from repro.core.udatabase import partition_label
from repro.obs import (
    reset_accounting,
    reset_metrics,
    reset_slow_queries,
    reset_workload,
)
from repro.relational import Distinct, Project, reset_compile_cache, reset_plan_cache, run

__all__ = ["vehicles_udb", "brute_force_poss", "brute_force_certain", "brute_force_conf"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Empty the compile/plan caches and the obs state before every test.

    All of these stores are process-wide; without the reset, any test
    asserting on their counters (or on cold-path behaviour like "the
    first run plans, the second doesn't") would depend on which tests
    happened to run earlier in the collection order.
    """
    reset_compile_cache()
    reset_plan_cache()
    reset_metrics()
    reset_slow_queries()
    reset_workload()
    reset_accounting()
    yield


def build_vehicles_udb() -> UDatabase:
    """The paper's running example (Figure 1): four vehicles, 8 worlds."""
    w = WorldTable({"x": [1, 2], "y": [1, 2], "z": [1, 2]})
    empty = Descriptor()
    u_id = URelation.build(
        [
            (empty, "a", (1,)),
            (Descriptor(x=1), "b", (2,)),
            (Descriptor(x=2), "b", (3,)),
            (Descriptor(x=1), "c", (3,)),
            (Descriptor(x=2), "c", (2,)),
            (empty, "d", (4,)),
        ],
        tid_name="tid_r",
        value_names=["id"],
    )
    u_type = URelation.build(
        [
            (empty, "a", ("Tank",)),
            (empty, "b", ("Transport",)),
            (empty, "c", ("Tank",)),
            (Descriptor(y=1), "d", ("Tank",)),
            (Descriptor(y=2), "d", ("Transport",)),
        ],
        tid_name="tid_r",
        value_names=["type"],
    )
    u_faction = URelation.build(
        [
            (empty, "a", ("Friend",)),
            (empty, "b", ("Friend",)),
            (empty, "c", ("Enemy",)),
            (Descriptor(z=1), "d", ("Friend",)),
            (Descriptor(z=2), "d", ("Enemy",)),
        ],
        tid_name="tid_r",
        value_names=["faction"],
    )
    udb = UDatabase(w)
    udb.add_relation("r", ["id", "type", "faction"], [u_id, u_type, u_faction])
    return udb


@pytest.fixture
def vehicles_udb() -> UDatabase:
    return build_vehicles_udb()


def without_indexes(udb: UDatabase) -> UDatabase:
    """``udb`` with every index definition dropped: an index-free database."""
    for _, name, _, _ in udb.index_defs():
        udb.drop_index(name)
    return udb


def partition_relation(udb: UDatabase, label: str):
    """The live relation of the partition labelled ``u_<rel>_<attrs>``."""
    (relation,) = (
        part.relation
        for name in udb.relation_names()
        for part in udb.partitions(name)
        if partition_label(name, part) == label
    )
    return relation


def unoptimized_poss(query: UQuery, udb: UDatabase) -> Set[Tuple]:
    """``poss(query)`` run on its translated plan with no optimizer rewrite
    (uncached; the join order is still the translation's)."""
    inner = translate(query, udb)
    plan = Distinct(Project(inner.plan, list(inner.value_names)))
    return set(run(plan, optimize_first=False).rows)


def brute_force_poss(query: UQuery, udb: UDatabase) -> Set[Tuple]:
    """Union of per-world answers (the gold possible-answer semantics)."""
    out: Set[Tuple] = set()
    for _valuation, instances in udb.worlds():
        out |= set(evaluate_in_world(query, instances).rows)
    return out


def brute_force_certain(query: UQuery, udb: UDatabase) -> Set[Tuple]:
    """Intersection of per-world answers (the gold certain-answer semantics)."""
    out = None
    for _valuation, instances in udb.worlds():
        rows = set(evaluate_in_world(query, instances).rows)
        out = rows if out is None else out & rows
    return out or set()


def brute_force_conf(query: UQuery, udb: UDatabase) -> Dict[Tuple, float]:
    """Per possible tuple, the summed probability of the worlds it occurs in
    (the gold confidence semantics)."""
    out: Dict[Tuple, float] = {}
    for valuation, instances in udb.worlds():
        probability = udb.world_table.valuation_probability(valuation)
        for row in set(evaluate_in_world(query, instances).rows):
            out[row] = out.get(row, 0.0) + probability
    return out
