"""The memoized confidence engine: exact, approximate, and auto paths.

The oracle throughout is full world enumeration: the probability of a
descriptor union is the total weight of the valuations satisfying at
least one descriptor.  The engine must match it exactly on the exact
path, within (epsilon, delta) on the sampled path, and the memoization
layer must actually share work across groups.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import (
    ConfidenceEngine,
    Descriptor,
    WorldTable,
    approx_confidence,
    assignment_space_size,
    confidence_engine,
    exact_confidence,
    monte_carlo_confidence,
)
from repro.core import probability
from repro.core.descriptor import TOP_VALUE, TOP_VARIABLE
from repro.core.probability import EXACT_SPACE_LIMIT
from repro.relational import plan_cache_stats
from repro.sql import execute_sql, prepare

from tests.conftest import build_vehicles_udb


def oracle_confidence(descriptors, world):
    """Union probability by full world enumeration."""
    if not descriptors:
        return 0.0
    total = 0.0
    for valuation in world.valuations():
        if any(d.extended_by(valuation) for d in descriptors):
            total += world.valuation_probability(valuation)
    return total


# -- strategies ---------------------------------------------------------
@st.composite
def prob_worlds(draw):
    """2-3 variables, domain sizes 2-3, random (normalized) probabilities."""
    n_vars = draw(st.integers(min_value=2, max_value=3))
    domains = {}
    probabilities = {}
    for i in range(n_vars):
        var = f"v{i}"
        size = draw(st.integers(min_value=2, max_value=3))
        weights = [
            draw(st.integers(min_value=1, max_value=5)) for _ in range(size)
        ]
        total = sum(weights)
        domains[var] = list(range(1, size + 1))
        probabilities[var] = [w / total for w in weights]
    return WorldTable(domains, probabilities=probabilities)


@st.composite
def descriptor_lists(draw, world):
    variables = sorted(world.variables())
    n = draw(st.integers(min_value=0, max_value=5))
    out = []
    for _ in range(n):
        width = draw(st.integers(min_value=0, max_value=2))
        chosen = draw(
            st.lists(
                st.sampled_from(variables),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        out.append(
            Descriptor(
                {var: draw(st.sampled_from(world.domain(var))) for var in chosen}
            )
        )
    return out


@st.composite
def worlds_and_descriptors(draw):
    world = draw(prob_worlds())
    return world, draw(descriptor_lists(world))


# -- exact path ---------------------------------------------------------
@given(worlds_and_descriptors())
@settings(max_examples=120, deadline=None)
def test_exact_matches_world_enumeration(case):
    world, descriptors = case
    value = exact_confidence(descriptors, world)
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(oracle_confidence(descriptors, world))


def test_a_union_of_every_value_is_exactly_one():
    """Nine floats of 1/9 add up to 1.0000000000000002: a group naming every
    value of a uniform nine-valued variable is certain, so exactly 1."""
    values = list(range(1, 10))
    world = WorldTable({"v": values}, probabilities={"v": [1 / 9] * 9})
    descriptors = [Descriptor(v=value) for value in values]
    assert ConfidenceEngine(world).confidence(descriptors, method="exact") == 1.0
    assert ConfidenceEngine(world, exact_limit=1).confidence(descriptors) == 1.0


@given(worlds_and_descriptors())
@settings(max_examples=60, deadline=None)
def test_auto_matches_exact_on_small_spaces(case):
    world, descriptors = case
    engine = confidence_engine(world)
    assert engine.confidence(descriptors, method="auto") == pytest.approx(
        engine.confidence(descriptors, method="exact")
    )


@given(worlds_and_descriptors())
@settings(max_examples=40, deadline=None)
def test_streaming_exact_matches_indexed(case):
    """Forcing the streaming fallback (tiny exact_limit) changes nothing."""
    world, descriptors = case
    tight = ConfidenceEngine(world, exact_limit=1)
    assert tight.confidence(descriptors, method="exact") == pytest.approx(
        oracle_confidence(descriptors, world)
    )


def test_component_factorization_on_disjoint_variables():
    """Descriptors over disjoint variables multiply: 1 - prod(1 - p_i)."""
    world = WorldTable(
        {"a": [1, 2], "b": [1, 2], "c": [1, 2]},
        probabilities={"a": [0.2, 0.8], "b": [0.4, 0.6], "c": [0.5, 0.5]},
    )
    descriptors = [Descriptor(a=1), Descriptor(b=1), Descriptor(c=1)]
    expected = 1.0 - (1 - 0.2) * (1 - 0.4) * (1 - 0.5)
    assert exact_confidence(descriptors, world) == pytest.approx(expected)


def test_engine_is_shared_and_memoizes_across_groups():
    world = WorldTable(
        {"x": [1, 2], "y": [1, 2]}, probabilities={"x": [0.3, 0.7], "y": [0.5, 0.5]}
    )
    engine = confidence_engine(world)
    assert confidence_engine(world) is engine  # one engine per table
    # singleton components go through the descriptor-probability cache
    engine.confidence([Descriptor(x=1), Descriptor(y=1)])
    # a connected component (shared x) exercises the indexed exact path
    descriptors = [Descriptor(x=1), Descriptor(x=2, y=1)]
    first = engine.confidence(descriptors)
    hits_before = engine.stats()["cache_hits"]
    second = engine.confidence(list(reversed(descriptors)))  # same set
    assert second == first
    stats = engine.stats()
    assert stats["cache_hits"] == hits_before + 1
    assert stats["cached_descriptors"] >= 2
    assert stats["cached_variable_sets"] >= 1


def test_memoized_vectors_survive_append_only_growth():
    """add_variable never invalidates cached vectors (append-only table)."""
    world = WorldTable({"x": [1, 2]}, probabilities={"x": [0.25, 0.75]})
    engine = confidence_engine(world)
    assert engine.confidence([Descriptor(x=1)]) == pytest.approx(0.25)
    world.add_variable("y", [1, 2], probabilities=[0.5, 0.5])
    assert engine.confidence([Descriptor(x=1), Descriptor(y=1)]) == pytest.approx(
        1 - 0.75 * 0.5
    )


def test_edge_cases():
    world = WorldTable({"x": [1, 2]}, probabilities={"x": [0.5, 0.5]})
    engine = confidence_engine(world)
    assert engine.confidence([]) == 0.0
    assert engine.confidence([Descriptor()]) == 1.0
    assert engine.confidence([Descriptor(), Descriptor(x=1)]) == 1.0


def test_invalid_inputs_rejected():
    world = WorldTable({"x": [1, 2]}, probabilities={"x": [0.5, 0.5]})
    engine = confidence_engine(world)
    with pytest.raises(ValueError):
        engine.confidence([Descriptor(x=1)], method="magic")
    with pytest.raises(ValueError):
        engine.confidence([Descriptor(x=1)], method="approx", epsilon=0.0)
    with pytest.raises(ValueError):
        engine.confidence([Descriptor(x=1)], method="approx", delta=1.5)


# -- assignment-space helper --------------------------------------------
def test_assignment_space_size():
    world = WorldTable({"x": [1, 2], "y": [1, 2, 3]})
    assert assignment_space_size([], world) == 1
    assert assignment_space_size(["x"], world) == 2
    assert assignment_space_size(["x", "y"], world) == 6
    assert assignment_space_size(["x", "y"], world, limit=5) is None
    assert assignment_space_size(["x", "y"], world, limit=6) == 6
    assert EXACT_SPACE_LIMIT == 1 << 16


# -- approximate path ---------------------------------------------------
@given(worlds_and_descriptors(), st.integers(min_value=0, max_value=5))
@settings(max_examples=30, deadline=None)
def test_approx_within_epsilon_on_small_cases(case, seed):
    world, descriptors = case
    exact = oracle_confidence(descriptors, world)
    estimate = approx_confidence(
        descriptors, world, epsilon=0.05, delta=0.02, seed=seed
    )
    # delta=0.02 over 30 examples x 6 seeds makes a miss vanishingly rare;
    # the small slack absorbs it entirely
    assert abs(estimate - exact) <= 0.05 + 1e-9


def test_approx_epsilon_delta_bound_over_seeds():
    """>= 95% of seeds land within epsilon (the advertised delta=0.05)."""
    world = WorldTable(
        {"x": [1, 2, 3], "y": [1, 2, 3], "z": [1, 2]},
        probabilities={
            "x": [0.2, 0.3, 0.5],
            "y": [0.6, 0.3, 0.1],
            "z": [0.45, 0.55],
        },
    )
    descriptors = [
        Descriptor(x=1, y=1),
        Descriptor(y=1, z=1),
        Descriptor(x=2, z=2),
        Descriptor(x=3, y=2),
    ]
    exact = oracle_confidence(descriptors, world)
    epsilon = 0.05
    within = sum(
        abs(approx_confidence(descriptors, world, epsilon=epsilon, delta=0.05, seed=s) - exact)
        <= epsilon
        for s in range(40)
    )
    assert within >= 38  # 95% of 40


def test_approx_deterministic_given_seed():
    world = WorldTable(
        {"x": [1, 2], "y": [1, 2]}, probabilities={"x": [0.3, 0.7], "y": [0.5, 0.5]}
    )
    a = approx_confidence(
        [Descriptor(x=1), Descriptor(y=1)], world, epsilon=0.05, delta=0.1, seed=11
    )
    b = approx_confidence(
        [Descriptor(x=1), Descriptor(y=1)], world, epsilon=0.05, delta=0.1, seed=11
    )
    assert a == b


def test_approx_estimate_stays_in_feasible_interval():
    """Estimates are clamped to [max p_i, min(1, sum p_i)]."""
    world = WorldTable(
        {"x": [1, 2], "y": [1, 2]}, probabilities={"x": [0.9, 0.1], "y": [0.8, 0.2]}
    )
    descriptors = [Descriptor(x=1), Descriptor(y=1)]
    for seed in range(10):
        estimate = approx_confidence(
            descriptors, world, epsilon=0.01, delta=0.2, seed=seed
        )
        assert 0.9 - 1e-12 <= estimate <= 1.0


def test_auto_switches_to_sampling_beyond_the_space_limit():
    """A connected component too large to enumerate is sampled under auto."""
    world = WorldTable(
        {"x": [1, 2], "y": [1, 2]}, probabilities={"x": [0.3, 0.7], "y": [0.5, 0.5]}
    )
    engine = ConfidenceEngine(world, exact_limit=2)  # 2x2 space > limit
    descriptors = [Descriptor(x=1), Descriptor(x=2, y=1)]
    value, used = engine.confidence_detail(
        descriptors, method="auto", epsilon=0.02, delta=0.05, seed=0
    )
    assert used == "approx"
    exact = oracle_confidence(descriptors, world)
    assert value == pytest.approx(exact, abs=0.02 + 1e-9)
    # singleton components never sample, even under forced approx
    _p, used_single = engine.confidence_detail(
        [Descriptor(x=1)], method="approx", epsilon=0.02, delta=0.05, seed=0
    )
    assert used_single == "exact"


def sampled_estimates(world, descriptors, epsilon, delta, seeds):
    """One fresh-engine estimate per seed, after checking the feasible
    interval is wider than ``2 * epsilon`` (else nothing is sampled)."""
    engine = ConfidenceEngine(world)
    probs = [engine.descriptor_probability(d.items()) for d in descriptors]
    assert min(1.0, sum(probs)) - max(probs) > 2 * epsilon
    return [
        engine.confidence(descriptors, method="approx", epsilon=epsilon, delta=delta, seed=s)
        for s in seeds
    ]


def assert_within_promise(estimates, exact, epsilon):
    """>= 95 % of the estimates within epsilon, and no visible bias."""
    errors = [estimate - exact for estimate in estimates]
    assert sum(abs(e) <= epsilon for e in errors) >= 0.95 * len(errors)
    assert abs(statistics.mean(errors)) <= epsilon / 4


def chain_confidence(named):
    """Exact conf of the chain ``{v_i = a_i, v_{i+1} = a_{i+1}}``, where
    ``named[i] = P(v_i = a_i)``: a two-state transfer-matrix recurrence over
    "no pair hit yet, and v_i does / does not hold its named value"."""
    clear, held = 1.0 - named[0], named[0]
    for q in named[1:]:
        clear, held = (clear + held) * (1.0 - q), clear * q
    return 1.0 - clear - held


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non_dyadic"])
def test_heavy_chain_estimates_match_the_closed_form(uniform):
    """The 41-variable chain (assignment space >= 3^41) over 200 seeds."""
    names = [f"v{i}" for i in range(41)]
    if uniform:
        domains = {v: [1, 2, 3, 4] for v in names}
        probabilities = {v: [0.25] * 4 for v in names}
        held = {v: 1 for v in names}
    else:  # P(named value) in 3/17 .. 7/17, the named value moving over 1..3
        domains = {v: [1, 2, 3] for v in names}
        probabilities = {}
        held = {}
        for i, v in enumerate(names):
            q = (3 + (7 * i) % 5) / 17
            rest = [(1 - q) / 3, 2 * (1 - q) / 3]
            held[v] = 1 + i % 3
            probabilities[v] = rest[: held[v] - 1] + [q] + rest[held[v] - 1 :]
    world = WorldTable(domains, probabilities=probabilities)
    chain = [Descriptor({a: held[a], b: held[b]}) for a, b in zip(names, names[1:])]
    exact = chain_confidence([world.probability(v, held[v]) for v in names])
    assert_within_promise(sampled_estimates(world, chain, 0.1, 0.05, range(200)), exact, 0.1)


def small_world(x_probs=(0.2, 0.3, 0.5)):
    return WorldTable(
        {"x": [1, 2, 3], "y": [1, 2, 3], "z": [1, 2]},
        probabilities={"x": list(x_probs), "y": [0.6, 0.3, 0.1], "z": [0.45, 0.55]},
    )


@pytest.mark.parametrize(
    "x_probs, descriptors",
    [
        # x is named with 1 by one descriptor and with 2 by another
        ((0.2, 0.3, 0.5), [dict(x=1, y=1), dict(x=2, z=1), dict(y=2, z=2)]),
        # a single-variable descriptor beside wider ones on its variable
        ((0.2, 0.3, 0.5), [dict(y=1), dict(x=1, y=2), dict(x=2, z=1)]),
        # a descriptor of probability zero: never picked, never covering
        ((0.0, 0.4, 0.6), [dict(x=1, y=1), dict(x=2, y=1), dict(y=2, z=1), dict(x=3, z=2)]),
    ],
    ids=["two_values_of_one_variable", "single_variable", "zero_probability_value"],
)
def test_small_cases_match_world_enumeration(x_probs, descriptors):
    world = small_world(x_probs)
    descriptors = [Descriptor(d) for d in descriptors]
    exact = oracle_confidence(descriptors, world)
    assert_within_promise(sampled_estimates(world, descriptors, 0.05, 0.05, range(40)), exact, 0.05)


def test_sample_counts_beyond_one_lane_block(monkeypatch):
    """Blocks split the lanes (a ragged last block included) and the
    inverse coverage sums across them."""
    world = small_world()
    descriptors = [Descriptor(x=1, y=1), Descriptor(y=1, z=1), Descriptor(x=2, z=2)]
    exact = oracle_confidence(descriptors, world)
    widths = []
    real = probability._categorical_lanes

    def recording(getrandbits, weights, lanes, width):
        widths.append(width)
        return real(getrandbits, weights, lanes, width)

    monkeypatch.setattr(probability, "_categorical_lanes", recording)
    for estimate in sampled_estimates(world, descriptors, 0.0015, 0.05, range(2)):
        assert abs(estimate - exact) <= 0.0015
    assert max(widths) == probability._LANE_BLOCK > min(widths)
    monkeypatch.setattr(probability, "_LANE_BLOCK", 100)
    widths.clear()
    estimates = sampled_estimates(world, descriptors, 0.05, 0.05, range(40))
    assert max(widths) == 100 > min(widths)
    assert_within_promise(estimates, exact, 0.05)


_DETERMINISM_SCRIPT = """
from repro.core import ConfidenceEngine, Descriptor, WorldTable
names = ["var_" + c for c in "abcdefghij"]
world = WorldTable({n: [1, 2, 3] for n in names}, probabilities={n: [0.2, 0.3, 0.5] for n in names})
chain = [Descriptor({a: 1 + i % 3, b: 1 + (i + 1) % 3}) for i, (a, b) in enumerate(zip(names, names[1:]))]
print(repr(ConfidenceEngine(world).confidence(chain, method="approx", epsilon=0.05, delta=0.05, seed=7)))
"""


def test_estimates_agree_across_processes_and_hash_seeds():
    """A seed fixes the estimate, whatever order ``set``s of strings
    iterate in (``PYTHONHASHSEED``)."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout.strip())
    assert len(outputs) == 1, outputs


def test_option_memo_is_bounded_under_fresh_seeds():
    """Fresh client seeds cannot grow the memo past its capacity, and an
    ``auto`` group hit often survives the flood as a cache hit."""
    world = WorldTable(
        {"x": [1, 2], "y": [1, 2]}, probabilities={"x": [0.5, 0.5], "y": [0.5, 0.5]}
    )
    engine = ConfidenceEngine(world, exact_limit=2)  # auto samples x-y groups
    hot = [Descriptor(x=1), Descriptor(x=2, y=1)]
    for _ in range(10):
        engine.confidence(hot, method="auto", epsilon=0.05, seed=0)
    for seed in range(1, 5001):
        engine.confidence(hot, method="approx", epsilon=0.1, seed=seed)
        engine.confidence([Descriptor(x=1), Descriptor(y=1)], method="auto", seed=seed)
    memo = engine._group_option
    assert len(memo) <= 1024
    assert len(memo) <= memo.capacity
    hits = engine.stats()["cache_hits"]
    engine.confidence(hot, method="auto", epsilon=0.05, seed=0)
    assert engine.stats()["cache_hits"] == hits + 1


# -- groups given as encoded descriptor prefixes ------------------------
@st.composite
def encoded(draw, descriptor, width):
    """One encoding of ``descriptor`` in ``width`` slots: its pairs in any
    slot order, the free slots ⊤ pairs or repeats of one of its pairs."""
    items = list(descriptor.items())
    pads = items + [(TOP_VARIABLE, TOP_VALUE)]
    slots = items + [draw(st.sampled_from(pads)) for _ in range(width - len(items))]
    return tuple(part for pair in draw(st.permutations(slots)) for part in pair)


@st.composite
def encoded_groups(draw):
    """A world, a drawn descriptor group, and two encodings of the group."""
    world, descriptors = draw(worlds_and_descriptors())
    width = draw(st.integers(min_value=2, max_value=3))
    first, second = (
        {draw(encoded(d, width)) for d in descriptors} for _ in range(2)
    )
    return world, descriptors, first, second


@given(encoded_groups(), st.sampled_from(["exact", "auto"]))
@settings(max_examples=80, deadline=None)
def test_encoded_groups_match_world_enumeration(case, method):
    world, descriptors, first, second = case
    engine = ConfidenceEngine(world)
    expected = oracle_confidence(descriptors, world)
    confidences, sampled = engine.encoded_confidences([first, second], method)
    assert sampled == 0
    assert confidences[0] == pytest.approx(expected)
    assert confidences[1] == confidences[0]  # one descriptor set, two encodings
    before = engine.stats()
    assert engine.encoded_confidences([second, first], method) == (confidences[::-1], 0)
    after = engine.stats()
    for counter in ("groups_total", "exact_groups", "cache_hits"):
        assert after[counter] == before[counter] + 2, counter


def chain_encodings(length=41):
    """The 41-variable chain ``{v_i = 1, v_{i+1} = 1}``, one encoded prefix
    per link (width 2), over a uniform four-value world."""
    names = [f"v{i}" for i in range(length)]
    world = WorldTable(
        {v: [1, 2, 3, 4] for v in names}, probabilities={v: [0.25] * 4 for v in names}
    )
    return world, {(a, 1, b, 1) for a, b in zip(names, names[1:])}


def test_sampled_groups_are_never_kept_in_the_encoded_memo():
    """A fresh seed on the chain samples every time: nothing an ``approx``
    request returns is stored under its encodings."""
    world, chain = chain_encodings()
    engine = ConfidenceEngine(world)
    for seed in range(1, 6):
        before = engine.stats()
        confidences, sampled = engine.encoded_confidences([chain], "approx", 0.1, 0.05, seed)
        after = engine.stats()
        assert sampled == 1 and 0.0 < confidences[0] < 1.0
        assert after["approx_groups"] == before["approx_groups"] + 1
        assert after["cache_hits"] == before["cache_hits"]
        assert after["cached_encoded_groups"] == 0
    assert engine.stats()["cached_options"] == 5


def test_an_invalid_budget_still_raises_on_a_warm_group():
    world = WorldTable({"x": [1, 2], "y": [1, 2]})
    engine = ConfidenceEngine(world)
    group = {("x", 1, "y", 1), ("x", 2, TOP_VARIABLE, TOP_VALUE)}
    engine.encoded_confidences([group], "auto", 0.01, 0.05)
    with pytest.raises(ValueError, match="epsilon"):
        engine.encoded_confidences([group], "auto", 0.0, 0.05)


def test_stats_count_the_entries_of_each_group_memo():
    world = WorldTable(
        {"x": [1, 2], "y": [1, 2]}, probabilities={"x": [0.3, 0.7], "y": [0.5, 0.5]}
    )
    engine = ConfidenceEngine(world, exact_limit=2)  # auto samples x-y groups
    empty = {"cached_groups": 0, "cached_encoded_groups": 0, "cached_options": 0}
    assert {key: engine.stats()[key] for key in empty} == empty
    engine.confidence([Descriptor(x=1), Descriptor(x=2)], method="exact")
    engine.encoded_confidences([{("x", 1, "x", 1)}, {("y", 2, TOP_VARIABLE, TOP_VALUE)}])
    engine.confidence([Descriptor(x=1), Descriptor(x=2, y=1)], method="auto", seed=1)
    engine.confidence([Descriptor(x=1), Descriptor(x=2, y=1)], method="auto", seed=2)
    stats = engine.stats()
    assert stats["cached_groups"] == 3  # an encoded miss resolves through it
    assert stats["cached_encoded_groups"] == 2
    assert stats["cached_options"] == 2


def test_warm_groups_hit_after_an_insert_replans_the_statement(monkeypatch):
    """The memo lives on the engine, not on a plan node: a write that
    re-plans a prepared ``conf`` statement leaves its warm groups warm."""
    udb = build_vehicles_udb()
    stmt = prepare("conf (select id from r where faction = 'Enemy')", udb)
    first = stmt.run()
    engine = confidence_engine(udb.world_table)
    decoded = []
    real = probability.decode_descriptor
    monkeypatch.setattr(
        probability, "decode_descriptor", lambda enc: decoded.append(enc) or real(enc)
    )
    execute_sql("insert into r values (5, 'Tank', 'Friend')", udb)
    misses, hits = plan_cache_stats()["misses"], engine.stats()["cache_hits"]
    again = stmt.run()
    assert plan_cache_stats()["misses"] == misses + 1  # re-planned
    assert again.rows == first.rows and again.conf["groups"] == len(first.rows) == 3
    assert engine.stats()["cache_hits"] == hits + 3
    assert decoded == []


# -- the direct sampler (hoisted-domain rewrite) ------------------------
@given(worlds_and_descriptors())
@settings(max_examples=20, deadline=None)
def test_monte_carlo_still_converges(case):
    world, descriptors = case
    exact = oracle_confidence(descriptors, world)
    estimate = monte_carlo_confidence(descriptors, world, samples=20_000, seed=5)
    assert estimate == pytest.approx(exact, abs=0.03)
