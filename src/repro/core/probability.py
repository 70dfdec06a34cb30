"""Probabilistic U-relations (Section 7): confidence computation.

The probabilistic extension adds a probability column ``P`` to the world
table such that each variable's probabilities sum to one; variables are
independent.  Positive relational algebra evaluation is *unchanged* — only
confidence computation is new:

    conf(t) = P( union of the world-sets of t's ws-descriptors )

Confidence computation is #P-hard in general (the paper cites [10]).  This
module provides a memoized confidence engine plus bounded-error sampling:

* :class:`ConfidenceEngine` — the shared, memoized computation kernel.
  Per-variable domain/probability vectors are fetched from the
  :class:`WorldTable` once (world tables are append-only, so the vectors
  never go stale), descriptor → satisfying-assignment index sets are
  cached by descriptor structural key, and assignment-space probability
  vectors are shared across all groups that touch the same variable set —
  the common case after normalization.  Descriptor unions are first split
  into independent components (descriptors sharing no variable multiply:
  ``P(A ∪ B) = 1 - (1-P(A))(1-P(B))``), so enumeration is exponential only
  in the largest *connected* variable set, not in all touched variables.
  A group resolved without sampling is memoized under two keys, each with
  the method: the ``frozenset`` of its descriptors' structural keys, and
  the ``frozenset`` of the encoded ``(c1, w1, ..., ck, wk)`` prefixes a
  ``Confidence`` operator groups (:meth:`ConfidenceEngine.encoded_confidences`),
  so a warm group costs that operator one lookup, with no decode.  The
  encoded key is sound because decoding is a pure function of the tuple
  and the world table is append-only; two encodings of one descriptor set
  (slots in another order, other pads) may miss each other, and then meet
  in the structural memo.
* the **exact** path — component-wise enumeration over the touched
  assignment space (indexed through the caches above, streaming beyond
  :data:`EXACT_SPACE_LIMIT`),
* the **approx** path — a Karp–Luby-style union sampler over the
  descriptor world-sets with an absolute ``(epsilon, delta)`` guarantee:
  with probability at least ``1 - delta`` the estimate is within
  ``epsilon`` of the true confidence (Hoeffding sample count over the
  coverage estimator; components needing sampling split the budget).
  It runs bit-parallel: sample ``s`` is lane (bit) ``s`` of Python ints,
  a variable has one lane mask per value a descriptor names (its other
  values, which no descriptor tests, share one outcome), and lanes come
  in blocks of at most :data:`_LANE_BLOCK`; the estimator, and so the
  promise, is the per-sample one.  Seeds are client-supplied, so sampled
  results are memoized in a bounded LRU,
* ``method="auto"`` — exact per component while the component's assignment
  space fits :data:`EXACT_SPACE_LIMIT`, sampling beyond it, and
* :func:`monte_carlo_confidence` — the direct (naive) sampler over touched
  variables, kept as the measurement baseline and fallback; its per-sample
  domain/weight refetch loop is hoisted.

:func:`tuple_confidences` / :func:`confidence_relation` group a query
result by value tuple and compute per-group confidences through one shared
engine, so identical descriptor sets across groups are computed once.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..relational.plancache import LruHotCache
from ..relational.relation import Relation
from ..relational.schema import Schema
from .descriptor import Descriptor, decode_descriptor
from .urelation import URelation
from .worldtable import WorldTable

__all__ = [
    "ConfidenceEngine",
    "ConfidenceAnswer",
    "confidence_engine",
    "exact_confidence",
    "approx_confidence",
    "monte_carlo_confidence",
    "tuple_confidences",
    "confidence_relation",
    "assignment_space_size",
    "EXACT_SPACE_LIMIT",
    "DEFAULT_EPSILON",
    "DEFAULT_DELTA",
]

#: Assignment spaces up to this many joint assignments are enumerated
#: exactly (and their probability vectors cached); ``method="auto"``
#: switches a larger component to the bounded-error sampler.  Shared with
#: the aggregate bounds (``repro.core.aggregates.EXACT_BOUND_LIMIT``).
EXACT_SPACE_LIMIT = 1 << 16

#: Default absolute error target of the approximate path.
DEFAULT_EPSILON = 0.01
#: Default failure probability of the approximate path.
DEFAULT_DELTA = 0.05

#: Most lanes (samples) one block of the bit-parallel sampler holds.
_LANE_BLOCK = 1 << 16

#: Sampled group results (per ``(method, epsilon, delta, seed)``) kept.
_GROUP_OPTION_CAPACITY = 256

#: Methods :func:`tuple_confidences` accepts (``monte-carlo`` is the
#: legacy direct sampler, kept for measurement).
_METHODS = ("exact", "approx", "auto", "monte-carlo")

#: A descriptor's structural key: its sorted ``(variable, value)`` items.
_DescKey = Tuple[Tuple[str, Any], ...]


def assignment_space_size(
    variables: Sequence[str],
    world_table: WorldTable,
    limit: Optional[int] = None,
) -> Optional[int]:
    """Product of the variables' domain sizes, or ``None`` beyond ``limit``.

    The one shared feasibility test for exact enumeration: the aggregate
    bounds (:func:`repro.core.aggregates.count_bounds` and friends) and the
    engine's ``auto`` method selection both call this.
    """
    space = 1
    for var in variables:
        space *= len(world_table.domain(var))
        if limit is not None and space > limit:
            return None
    return space


def _valid_budget(epsilon: float, delta: float) -> bool:
    """Whether ``(epsilon, delta)`` is an error budget a sampler can meet."""
    return epsilon > 0.0 and 0.0 < delta < 1.0


def _bernoulli_lanes(getrandbits: Callable[[int], int], q: float, lanes: int, width: int) -> int:
    """The lanes of ``lanes`` whose uniform ``U`` is below ``q``: each plane
    is the next binary digit of every lane's ``U``, compared with ``q``'s
    (exact: doubling a float and taking 1 off are), until no lane is tied;
    about ``log2(width)`` planes."""
    if q >= 1.0:
        return lanes
    hit = 0
    while lanes and q > 0.0:
        q += q
        plane = getrandbits(width)
        if q >= 1.0:
            q -= 1.0
            hit |= lanes & ~plane
            lanes &= plane
        else:
            lanes &= ~plane
    return hit


def _categorical_lanes(
    getrandbits: Callable[[int], int], weights: Sequence[float], lanes: int, width: int
) -> List[int]:
    """Split ``lanes`` into one mask per weight, category ``k`` drawn with
    probability ``weights[k] / sum(weights)``: a chain of Bernoulli draws
    over the lanes still unassigned (the last positive weight takes the rest)."""
    tails = list(itertools.accumulate(reversed(weights)))[::-1]
    masks = []
    for weight, tail in zip(weights, tails):
        hit = _bernoulli_lanes(getrandbits, weight / tail, lanes, width) if lanes else 0
        masks.append(hit)
        lanes ^= hit
    return masks


class ConfidenceEngine:
    """Memoized confidence computation over one :class:`WorldTable`.

    All caches are sound under the world table's append-only mutation
    model (``add_variable`` never changes an existing variable), so one
    engine instance can serve every query against its table for the
    table's whole lifetime; :func:`confidence_engine` maintains that
    singleton.
    """

    def __init__(self, world_table: WorldTable, exact_limit: int = EXACT_SPACE_LIMIT):
        self.world_table = world_table
        self.exact_limit = int(exact_limit)
        # per-variable vectors, fetched from the world table exactly once
        self._domains: Dict[str, Tuple[Any, ...]] = {}
        self._probs: Dict[str, Tuple[float, ...]] = {}
        self._value_index: Dict[str, Dict[Any, int]] = {}
        # descriptor-level caches (structural key -> result)
        self._descriptor_prob: Dict[_DescKey, float] = {}
        self._satisfying: Dict[Tuple[Tuple[str, ...], _DescKey], FrozenSet[int]] = {}
        # shared per-variable-set subexpressions
        self._space_probs: Dict[Tuple[str, ...], List[float]] = {}
        # component / group result caches: a group the method samples no
        # part of does not depend on (epsilon, delta, seed); a sampled one
        # does, and seeds are client-supplied, so those go to a bounded LRU
        self._component_exact: Dict[Tuple[_DescKey, ...], float] = {}
        self._group_exact: Dict[Tuple[FrozenSet[_DescKey], str], float] = {}
        # the same exact-resolved results, keyed by the encoded descriptor
        # prefixes a ``Confidence`` operator groups (encoded_confidences)
        self._group_encoded: Dict[Tuple[FrozenSet[Tuple[Any, ...]], str], float] = {}
        self._group_option = LruHotCache(_GROUP_OPTION_CAPACITY)
        # introspection counters
        self.groups_total = 0
        self.exact_groups = 0
        self.approx_groups = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # per-variable vectors
    # ------------------------------------------------------------------
    def _domain(self, var: str) -> Tuple[Any, ...]:
        domain = self._domains.get(var)
        if domain is None:
            domain = self.world_table.domain(var)
            self._domains[var] = domain
            self._probs[var] = tuple(
                self.world_table.probability(var, value) for value in domain
            )
            self._value_index[var] = {value: i for i, value in enumerate(domain)}
        return domain

    def _prob_vector(self, var: str) -> Tuple[float, ...]:
        self._domain(var)
        return self._probs[var]

    def _index_of(self, var: str, value: Any) -> int:
        self._domain(var)
        try:
            return self._value_index[var][value]
        except KeyError:
            raise KeyError(f"{value!r} not in domain of {var!r}") from None

    def descriptor_probability(self, key: _DescKey) -> float:
        """P(world-set of one descriptor) — product over its assignments."""
        p = self._descriptor_prob.get(key)
        if p is None:
            p = 1.0
            for var, value in key:
                p *= self._prob_vector(var)[self._index_of(var, value)]
            self._descriptor_prob[key] = p
        return p

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def confidence(
        self,
        descriptors: Sequence[Descriptor],
        method: str = "exact",
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
        seed: int = 0,
    ) -> float:
        value, _used = self.confidence_detail(descriptors, method, epsilon, delta, seed)
        return value

    def confidence_detail(
        self,
        descriptors: Sequence[Descriptor],
        method: str = "exact",
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
        seed: int = 0,
    ) -> Tuple[float, str]:
        """``(confidence, method_used)`` for a union of descriptors.

        ``method_used`` is ``"exact"`` or ``"approx"`` — a group counts as
        approximate when *any* of its components was sampled.
        """
        if method not in ("exact", "approx", "auto"):
            raise ValueError(
                f"unknown method {method!r}; use 'exact', 'approx', or 'auto'"
            )
        self.groups_total += 1
        keys = {d.items() for d in descriptors}
        if not keys:
            self.exact_groups += 1
            return 0.0, "exact"
        if () in keys:
            self.exact_groups += 1
            return 1.0, "exact"
        group = frozenset(keys)
        if method != "exact" and not _valid_budget(epsilon, delta):
            raise ValueError(
                f"need epsilon > 0 and 0 < delta < 1; got ({epsilon}, {delta})"
            )
        cached = self._group_exact.get((group, method))
        if cached is not None:
            self.cache_hits += 1
            self.exact_groups += 1
            return cached, "exact"
        option_key = (group, method, epsilon, delta, seed)
        if method != "exact":
            hit = self._group_option.get(option_key)
            if hit is not None:
                self.cache_hits += 1
                self.approx_groups += 1
                return hit, "approx"
        components = self._components(group)
        sampled = [comp for comp in components if self._should_sample(comp, method)]
        miss = 1.0
        if not sampled:
            for comp in components:
                miss *= 1.0 - self._component_union_exact(comp)
            value = 1.0 - miss
            self._group_exact[(group, method)] = value
            self.exact_groups += 1
            return value, "exact"
        # split the error budget over the sampled components: each |error|
        # <= eps_i with prob >= 1 - delta_i, and the product combination
        # 1 - prod(1 - P_c) is 1-Lipschitz in every P_c, so a union bound
        # gives the whole group its (epsilon, delta) guarantee
        eps_i = epsilon / len(sampled)
        delta_i = delta / len(sampled)
        to_sample = set(sampled)
        for comp in components:
            if comp in to_sample:
                p = self._component_union_approx(comp, eps_i, delta_i, seed)
            else:
                p = self._component_union_exact(comp)
            miss *= 1.0 - p
        value = 1.0 - miss
        self._group_option.put(option_key, value)
        self.approx_groups += 1
        return value, "approx"

    def encoded_confidences(
        self,
        groups: Iterable[AbstractSet[Tuple[Any, ...]]],
        method: str = "exact",
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
        seed: int = 0,
    ) -> Tuple[List[float], int]:
        """The confidence of each group, and how many groups were sampled.

        A group is a set of encoded descriptor prefixes, the ``(c1, w1,
        ..., ck, wk)`` tuples a U-relation row starts with.  A group
        resolved exactly before, under the same encodings and method, is
        one lookup, with no decode and no structural key.  Only a miss
        decodes (:func:`decode_descriptor`) and goes through
        :meth:`confidence_detail`, and only an exact result is kept (a
        sampled one depends on the seed).  A hit counts as a hit of
        :meth:`confidence_detail` does.
        """
        # an invalid budget must still raise, as it does without the memo
        valid = method == "exact" or _valid_budget(epsilon, delta)
        memo = self._group_encoded if valid else {}
        confidences: List[float] = []
        hits = sampled = 0
        for encodings in groups:
            key = (frozenset(encodings), method)
            value = memo.get(key)
            if value is None:
                value, used = self.confidence_detail(
                    [decode_descriptor(enc) for enc in encodings],
                    method, epsilon, delta, seed,
                )
                if used == "exact":
                    memo[key] = value
                else:
                    sampled += 1
            else:
                hits += 1
            confidences.append(value)
        self.groups_total += hits
        self.exact_groups += hits
        self.cache_hits += hits
        return confidences, sampled

    def stats(self) -> Dict[str, int]:
        """Cumulative engine counters and memo entry counts (for tests and
        observability)."""
        return {
            "groups_total": self.groups_total,
            "exact_groups": self.exact_groups,
            "approx_groups": self.approx_groups,
            "cache_hits": self.cache_hits,
            "cached_descriptors": len(self._descriptor_prob),
            "cached_variable_sets": len(self._space_probs),
            "cached_components": len(self._component_exact),
            "cached_groups": len(self._group_exact),
            "cached_encoded_groups": len(self._group_encoded),
            "cached_options": len(self._group_option),
        }

    # ------------------------------------------------------------------
    # independent-component decomposition
    # ------------------------------------------------------------------
    def _components(self, group: FrozenSet[_DescKey]) -> List[Tuple[_DescKey, ...]]:
        """Partition descriptors into variable-connected components.

        Descriptors in different components touch disjoint variable sets;
        independence of the variables makes the components independent
        events, so their union probabilities multiply.
        """
        parent: Dict[str, str] = {}

        def find(v: str) -> str:
            root = v
            while parent[root] != root:
                root = parent[root]
            while parent[v] != root:
                parent[v], v = root, parent[v]
            return root

        keys = sorted(group)
        for key in keys:
            anchor: Optional[str] = None
            for var, _val in key:
                if var not in parent:
                    parent[var] = var
                if anchor is None:
                    anchor = var
                else:
                    parent[find(var)] = find(anchor)
        buckets: Dict[str, List[_DescKey]] = {}
        for key in keys:
            root = find(key[0][0])
            buckets.setdefault(root, []).append(key)
        return [tuple(bucket) for bucket in buckets.values()]

    def _component_variables(self, comp: Tuple[_DescKey, ...]) -> Tuple[str, ...]:
        return tuple(sorted({var for key in comp for var, _val in key}))

    def _should_sample(self, comp: Tuple[_DescKey, ...], method: str) -> bool:
        if len(comp) == 1:
            return False  # a single descriptor is a closed-form product
        if method == "approx":
            return True
        if method == "exact":
            return False
        space = assignment_space_size(
            self._component_variables(comp), self.world_table, self.exact_limit
        )
        return space is None

    # ------------------------------------------------------------------
    # exact path
    # ------------------------------------------------------------------
    def _component_union_exact(self, comp: Tuple[_DescKey, ...]) -> float:
        if len(comp) == 1:
            return self.descriptor_probability(comp[0])
        cached = self._component_exact.get(comp)
        if cached is not None:
            return cached
        vars_key = self._component_variables(comp)
        space = assignment_space_size(vars_key, self.world_table, self.exact_limit)
        if space is None:
            value = self._union_exact_streaming(comp, vars_key)
        else:
            value = self._union_exact_indexed(comp, vars_key)
        self._component_exact[comp] = value
        return value

    def _union_exact_indexed(
        self, comp: Tuple[_DescKey, ...], vars_key: Tuple[str, ...]
    ) -> float:
        """Union probability via cached satisfying-index sets.

        Assignments of the variable set are numbered row-major; each
        descriptor's satisfying set is materialized once (size = space /
        product of its constrained domain sizes) and reused by every other
        group touching the same variables.
        """
        sizes = [len(self._domain(v)) for v in vars_key]
        strides = [1] * len(sizes)
        for i in range(len(sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * sizes[i + 1]
        union: set = set()
        for key in comp:
            union |= self._satisfying_indices(vars_key, sizes, strides, key)
        probs = self._assignment_probs(vars_key)
        return sum(probs[i] for i in union)

    def _satisfying_indices(
        self,
        vars_key: Tuple[str, ...],
        sizes: List[int],
        strides: List[int],
        key: _DescKey,
    ) -> FrozenSet[int]:
        cache_key = (vars_key, key)
        cached = self._satisfying.get(cache_key)
        if cached is not None:
            return cached
        position = {var: i for i, var in enumerate(vars_key)}
        fixed = 0
        constrained = set()
        for var, value in key:
            i = position[var]
            fixed += strides[i] * self._index_of(var, value)
            constrained.add(i)
        free = [i for i in range(len(vars_key)) if i not in constrained]
        if not free:
            result = frozenset((fixed,))
        else:
            free_strides = [strides[i] for i in free]
            result = frozenset(
                fixed + sum(s * t for s, t in zip(free_strides, combo))
                for combo in itertools.product(*(range(sizes[i]) for i in free))
            )
        self._satisfying[cache_key] = result
        return result

    def _assignment_probs(self, vars_key: Tuple[str, ...]) -> List[float]:
        probs = self._space_probs.get(vars_key)
        if probs is None:
            vectors = [self._prob_vector(v) for v in vars_key]
            prod = math.prod
            probs = [prod(ps) for ps in itertools.product(*vectors)]
            self._space_probs[vars_key] = probs
        return probs

    def _union_exact_streaming(
        self, comp: Tuple[_DescKey, ...], vars_key: Tuple[str, ...]
    ) -> float:
        """Forced-exact fallback beyond the indexable space limit.

        Iterates the assignment space without materializing index sets or
        probability vectors; positional constraint tuples replace the old
        per-assignment dict construction.
        """
        position = {var: i for i, var in enumerate(vars_key)}
        constraints = [
            tuple((position[var], value) for var, value in key) for key in comp
        ]
        domains = [self._domain(v) for v in vars_key]
        vectors = [self._prob_vector(v) for v in vars_key]
        prod = math.prod
        total = 0.0
        for combo, ps in zip(
            itertools.product(*domains), itertools.product(*vectors)
        ):
            if any(
                all(combo[i] == value for i, value in cons) for cons in constraints
            ):
                total += prod(ps)
        return total

    # ------------------------------------------------------------------
    # approximate path (Karp–Luby-style union sampling)
    # ------------------------------------------------------------------
    def _component_union_approx(
        self, comp: Tuple[_DescKey, ...], epsilon: float, delta: float, seed: int
    ) -> float:
        """Bounded-error estimate of one component's union probability.

        The coverage estimator: draw descriptor ``i`` with probability
        ``p_i / T`` (``T = sum p_j``), draw a world conditioned on ``i``
        (free variables sampled from their marginals), and average
        ``T / |{j : world satisfies d_j}|`` — an unbiased estimator of the
        union probability with every sample in ``[T/n, T]``.  Hoeffding
        over that range yields the sample count for an absolute
        ``(epsilon, delta)`` guarantee.

        A block's samples are drawn at once, sample ``s`` in lane (bit)
        ``s`` of Python ints: a mask per descriptor for the picks and one
        per ``(variable, value)`` a descriptor of ``comp`` names.  A
        variable's other values, which no descriptor tests, are one
        "other" outcome: coverage has the same distribution.  A pick fixes
        the variables it names; the rest come from their marginals.  A
        descriptor covers the AND of its masks, a bit-sliced counter
        (``levels[k]``: lanes whose count has bit ``k``) sums coverages,
        and ``sum_s 1/cover_s = sum_v popcount(lanes covered v times) / v``.
        Estimator, sample count and clamp are the per-sample loop's, and
        so is the promise.  A block holds at most :data:`_LANE_BLOCK`
        lanes (memory bounded for any ``epsilon``); draws go in ``comp``
        order, then sorted variables, then domain order: a seed fixes it.
        """
        probs = [self.descriptor_probability(key) for key in comp]
        total = sum(probs)
        if total <= 0.0:
            return 0.0
        lower = max(probs)
        upper = min(1.0, total)
        if upper - lower <= 2 * epsilon or total <= epsilon:
            # the feasible interval is already inside the error budget
            return (lower + upper) / 2.0
        n = len(comp)
        spread = total * (1.0 - 1.0 / n)  # sample range: [T/n, T]
        samples = max(
            1, math.ceil(spread * spread * math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
        )
        getrandbits = random.Random(f"{seed}|{comp!r}").getrandbits
        named: Dict[str, set] = {var: set() for var in self._component_variables(comp)}
        for key in comp:
            for var, value in key:
                named[var].add(self._index_of(var, value))
        slots: Dict[Tuple[str, Any], int] = {}  # (variable, value) -> mask slot
        draws = []  # per variable: its named slots, their weights + "other"'s
        for var, indices in named.items():
            domain, vector = self._domain(var), self._prob_vector(var)
            order = sorted(indices)
            weights = [vector[i] for i in order]
            weights.append(sum(p for i, p in enumerate(vector) if i not in indices))
            draws.append(([slots.setdefault((var, domain[i]), len(slots)) for i in order], weights))
        key_slots = [[slots[item] for item in key] for key in comp]
        inverse_coverage = 0.0
        for start in range(0, samples, _LANE_BLOCK):
            width = min(_LANE_BLOCK, samples - start)
            full = (1 << width) - 1
            masks = [0] * len(slots)  # the values picks fix, then the draws
            picks = _categorical_lanes(getrandbits, probs, full, width)
            for pick, pick_slots in zip(picks, key_slots):
                for s in pick_slots:
                    masks[s] |= pick
            for var_slots, weights in draws:
                pinned = 0
                for s in var_slots:
                    pinned |= masks[s]
                free = _categorical_lanes(getrandbits, weights, full ^ pinned, width)
                for s, drawn in zip(var_slots, free):
                    masks[s] |= drawn
            levels: List[int] = []
            for desc_slots in key_slots:
                carry = full
                for s in desc_slots:
                    carry &= masks[s]
                for k, level in enumerate(levels):
                    levels[k], carry = level ^ carry, level & carry
                if carry:
                    levels.append(carry)
            parts = [(full, 0)]  # (lanes, coverage so far read off the levels)
            for k, level in enumerate(levels):
                parts = [
                    part
                    for lanes, count in parts
                    for part in ((lanes & level, count | 1 << k), (lanes & ~level, count))
                    if part[0]
                ]
            inverse_coverage += sum(lanes.bit_count() / count for lanes, count in parts)
        estimate = total * inverse_coverage / samples
        return min(upper, max(lower, estimate))


def confidence_engine(world_table: WorldTable) -> ConfidenceEngine:
    """The shared (memoizing) engine of a world table, created lazily.

    The engine lives on the table, so its caches — valid for the table's
    whole lifetime under append-only mutation — are shared by every query,
    aggregate, and physical operator computing confidences against it.
    """
    engine = getattr(world_table, "_confidence_engine", None)
    if engine is None:
        engine = ConfidenceEngine(world_table)
        world_table._confidence_engine = engine
    return engine


# ----------------------------------------------------------------------
# module-level entry points
# ----------------------------------------------------------------------
def exact_confidence(descriptors: Sequence[Descriptor], world_table: WorldTable) -> float:
    """Exact probability of the union of descriptor world-sets.

    Complexity is exponential only in the largest *connected* variable set
    the descriptors touch, not in the world-table size — the locality
    normalization exploits (Section 7), sharpened by independent-component
    factorization.  Memoized through the table's shared engine.
    """
    return confidence_engine(world_table).confidence(descriptors, method="exact")


def approx_confidence(
    descriptors: Sequence[Descriptor],
    world_table: WorldTable,
    epsilon: float = DEFAULT_EPSILON,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> float:
    """Karp–Luby-style estimate: ``|answer - conf| <= epsilon`` with
    probability at least ``1 - delta``."""
    return confidence_engine(world_table).confidence(
        descriptors, method="approx", epsilon=epsilon, delta=delta, seed=seed
    )


def monte_carlo_confidence(
    descriptors: Sequence[Descriptor],
    world_table: WorldTable,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Direct Monte-Carlo estimate of the union probability.

    Samples assignments of the touched variables only; the estimator is
    unbiased with standard error ``sqrt(p(1-p)/samples)``.  Domains and
    weights are fetched once per variable (not per sample), and
    each variable's whole sample column is drawn in one C-level
    ``choices`` call.
    """
    descriptors = [d for d in descriptors]
    if not descriptors:
        return 0.0
    if any(d.empty for d in descriptors):
        return 1.0
    touched = sorted({var for d in descriptors for var in d.variables()})
    engine = confidence_engine(world_table)
    rng = random.Random(seed)
    columns = [
        rng.choices(engine._domain(var), weights=engine._prob_vector(var), k=samples)
        for var in touched
    ]
    position = {var: i for i, var in enumerate(touched)}
    constraints = [
        tuple((position[var], value) for var, value in d.items()) for d in descriptors
    ]
    hits = 0
    for combo in zip(*columns):
        if any(all(combo[i] == value for i, value in cons) for cons in constraints):
            hits += 1
    return hits / samples


def tuple_confidences(
    result: URelation,
    world_table: WorldTable,
    method: str = "exact",
    samples: int = 10_000,
    seed: int = 0,
    epsilon: float = DEFAULT_EPSILON,
    delta: float = DEFAULT_DELTA,
) -> Dict[Tuple[Any, ...], float]:
    """Confidence of every possible value tuple of a result U-relation.

    ``method`` is ``"exact"``, ``"approx"``, ``"auto"`` (exact while the
    touched assignment space is small, sampling beyond
    :data:`EXACT_SPACE_LIMIT`), or ``"monte-carlo"`` (the direct sampler;
    ``samples`` applies to it only).  All groups share one memoized
    engine, so identical descriptor sets across groups compute once.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {_METHODS}")
    groups: Dict[Tuple[Any, ...], List[Descriptor]] = {}
    for descriptor, _tids, values in result:
        groups.setdefault(values, []).append(descriptor)
    out: Dict[Tuple[Any, ...], float] = {}
    if method == "monte-carlo":
        for values, descriptors in groups.items():
            out[values] = monte_carlo_confidence(
                descriptors, world_table, samples=samples, seed=seed
            )
        return out
    engine = confidence_engine(world_table)
    for values, descriptors in groups.items():
        out[values] = engine.confidence(
            descriptors, method=method, epsilon=epsilon, delta=delta, seed=seed
        )
    return out


def confidence_relation(
    result: URelation,
    world_table: WorldTable,
    method: str = "exact",
    samples: int = 10_000,
    seed: int = 0,
    epsilon: float = DEFAULT_EPSILON,
    delta: float = DEFAULT_DELTA,
) -> Relation:
    """Possible tuples with a trailing ``conf`` column, sorted by confidence."""
    confidences = tuple_confidences(
        result,
        world_table,
        method=method,
        samples=samples,
        seed=seed,
        epsilon=epsilon,
        delta=delta,
    )
    schema = Schema(list(result.value_names) + ["conf"])
    rows = sorted(
        (values + (conf,) for values, conf in confidences.items()),
        key=lambda row: (-row[-1], tuple(map(repr, row[:-1]))),
    )
    return Relation(schema, rows)


class ConfidenceAnswer(Relation):
    """A confidence-query result: a plain relation plus a ``conf`` summary.

    The summary dict carries the method actually used, the error budget,
    and per-method group counts; the serving layer exposes it as the
    ``conf`` field of the wire response.
    """

    __slots__ = ("conf",)

    @classmethod
    def adopt(cls, relation: Relation, summary: Dict[str, Any]) -> "ConfidenceAnswer":
        answer = cls.from_trusted(relation.schema, relation.rows)
        answer.conf = dict(summary)
        return answer
