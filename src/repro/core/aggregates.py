"""Aggregation over uncertain query results (the paper's future work).

Section 6 notes the experiment queries are de-aggregated versions of TPC-H
queries because "dealing with aggregation is subject to future work", and
Section 7 points at probabilistic U-relations.  This module implements the
standard possible-worlds semantics for aggregates on top of query-result
U-relations:

* **expected aggregates** — for SUM and COUNT, the expectation over worlds
  is *exact and efficient* by linearity: each possible tuple contributes
  ``confidence(t) * value(t)`` (resp. ``confidence(t)``), with confidences
  from :mod:`repro.core.probability`.  No world enumeration.
* **bounds** — the minimum and maximum value an aggregate can take in any
  world.  For COUNT/SUM of non-negative values these follow from tuple
  certainty/possibility; for the general case (and for MIN/MAX/AVG) a
  Monte-Carlo sweep over sampled worlds gives estimated bounds and the
  full distribution.
* **per-world evaluation** — :func:`aggregate_distribution` samples total
  valuations, instantiates the result, and aggregates per world, yielding
  the aggregate's distribution (the object confidence computation
  generalizes).

All confidence lookups go through the world table's shared memoized
:class:`~repro.core.probability.ConfidenceEngine`, so identical descriptor
sets across groups (and across calls) are computed once.

These semantics follow the standard treatment of aggregation in
probabilistic databases; they compose with every query this package can
translate because they operate on result U-relations.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from .descriptor import Descriptor
from .probability import EXACT_SPACE_LIMIT, assignment_space_size, confidence_engine
from .urelation import URelation
from .worldtable import WorldTable

__all__ = [
    "expected_count",
    "expected_sum",
    "count_bounds",
    "sum_bounds",
    "aggregate_distribution",
]


def expected_count(result: URelation, world_table: WorldTable) -> float:
    """E[|poss tuples present|] — exact, by linearity of expectation.

    Distinct value tuples are the counted objects (set semantics, matching
    ``poss``); each contributes its confidence.
    """
    engine = confidence_engine(world_table)
    groups = _group_descriptors(result)
    return sum(engine.confidence(descriptors) for descriptors in groups.values())


def expected_sum(
    result: URelation, attribute: str, world_table: WorldTable
) -> float:
    """E[sum of ``attribute`` over the answer] — exact, by linearity."""
    index = list(result.value_names).index(attribute)
    engine = confidence_engine(world_table)
    groups = _group_descriptors(result)
    total = 0.0
    for values, descriptors in groups.items():
        value = values[index]
        if value is None:
            continue
        total += value * engine.confidence(descriptors)
    return total


#: Exact bounds enumerate assignments of the touched variables; beyond this
#: many combinations the cheaper independence bounds are used instead.
#: Shared with the confidence engine's auto method selection.
EXACT_BOUND_LIMIT = EXACT_SPACE_LIMIT


def count_bounds(result: URelation, world_table: WorldTable) -> Tuple[int, int]:
    """(min, max) number of distinct answer tuples over all worlds.

    Exact (by enumeration over the variables the result touches) whenever
    the touched assignment space is at most :data:`EXACT_BOUND_LIMIT`;
    otherwise falls back to the independence bounds (min counts certain
    tuples, max counts possible ones), which over-approximate the range
    when mutually exclusive alternatives are present.
    """
    exact = _exact_extrema(result, world_table, lambda values: 1)
    if exact is not None:
        return int(exact[0]), int(exact[1])
    engine = confidence_engine(world_table)
    groups = _group_descriptors(result)
    minimum = 0
    maximum = 0
    for descriptors in groups.values():
        confidence = engine.confidence(descriptors)
        if confidence > 1.0 - 1e-12:
            minimum += 1
        if confidence > 0.0:
            maximum += 1
    return minimum, maximum


def sum_bounds(
    result: URelation, attribute: str, world_table: WorldTable
) -> Tuple[float, float]:
    """(min, max) possible SUM of ``attribute`` over all worlds.

    Exact by touched-variable enumeration when feasible (see
    :func:`count_bounds`); the fallback is exact for non-negative values
    with independent tuple presence and an over-approximation otherwise.
    """
    index = list(result.value_names).index(attribute)

    def weigh(values):
        value = values[index]
        return value if value is not None else 0

    exact = _exact_extrema(result, world_table, weigh)
    if exact is not None:
        return exact
    engine = confidence_engine(world_table)
    groups = _group_descriptors(result)
    minimum = 0.0
    maximum = 0.0
    for values, descriptors in groups.items():
        value = values[index]
        if value is None:
            continue
        confidence = engine.confidence(descriptors)
        certain = confidence > 1.0 - 1e-12
        possible = confidence > 0.0
        if value >= 0:
            if certain:
                minimum += value
            if possible:
                maximum += value
        else:
            if possible:
                minimum += value
            if certain:
                maximum += value
    return minimum, maximum


def _exact_extrema(
    result: URelation,
    world_table: WorldTable,
    weight: Callable[[Tuple[Any, ...]], float],
) -> Optional[Tuple[float, float]]:
    """Exact (min, max) of ``sum(weight(t))`` over distinct present tuples,
    by enumerating assignments of the touched variables; ``None`` when the
    assignment space exceeds :data:`EXACT_BOUND_LIMIT`."""
    touched = sorted(
        {var for descriptor, _t, _v in result for var in descriptor.variables()}
    )
    if assignment_space_size(touched, world_table, EXACT_BOUND_LIMIT) is None:
        return None
    triples = [(d, v) for d, _t, v in result]
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    for combo in itertools.product(*(world_table.domain(v) for v in touched)):
        assignment = dict(zip(touched, combo))
        assignment["_t"] = 0
        present = {
            values
            for descriptor, values in triples
            if descriptor.extended_by(assignment)
        }
        total = sum(weight(values) for values in present)
        minimum = total if minimum is None else min(minimum, total)
        maximum = total if maximum is None else max(maximum, total)
    if minimum is None:
        return (0.0, 0.0)
    return (minimum, maximum)


def aggregate_distribution(
    result: URelation,
    world_table: WorldTable,
    aggregate: Callable[[List[Tuple[Any, ...]]], Any],
    samples: int = 1000,
    seed: int = 0,
) -> Dict[Any, float]:
    """Monte-Carlo distribution of an arbitrary aggregate over worlds.

    ``aggregate`` receives the list of *distinct* value tuples present in a
    sampled world and returns the aggregate value; the result maps
    aggregate values to estimated probabilities.  Only the variables the
    result actually touches are sampled; each variable's whole sample
    column is drawn in one call against domain/probability vectors
    fetched once from the engine's caches.
    """
    touched = sorted(
        {var for descriptor, _t, _v in result for var in descriptor.variables()}
    )
    triples = [(d, v) for d, _t, v in result]
    engine = confidence_engine(world_table)
    rng = random.Random(seed)
    columns = [
        rng.choices(engine._domain(var), weights=engine._prob_vector(var), k=samples)
        for var in touched
    ]
    histogram: Dict[Any, int] = {}
    for row in range(samples):
        assignment = {"_t": 0}
        for var, column in zip(touched, columns):
            assignment[var] = column[row]
        present = {
            values
            for descriptor, values in triples
            if descriptor.extended_by(assignment)
        }
        value = aggregate(sorted(present, key=repr))
        histogram[value] = histogram.get(value, 0) + 1
    return {value: count / samples for value, count in histogram.items()}


def _group_descriptors(result: URelation) -> Dict[Tuple[Any, ...], List[Descriptor]]:
    groups: Dict[Tuple[Any, ...], List[Descriptor]] = {}
    for descriptor, _tids, values in result:
        groups.setdefault(values, []).append(descriptor)
    return groups
