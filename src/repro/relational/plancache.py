"""The prepared-plan cache: repeated queries go executor-only.

Translation + optimization + physical planning cost a few milliseconds per
``execute_query`` — real money once the per-execution work is microseconds
(the compile cache already removed codegen from repeated runs; this module
removes *planning*).  The cache maps

    (normalized query structure, owner catalog, planner knobs)
        -> fully planned physical tree

so a repeated ``run``/``Database.run``/``execute_query`` skips the whole
translate -> optimize -> plan pipeline and goes straight to the executor.

Soundness rests on two facts:

* **Relations are immutable values.**  A physical plan embeds the relation
  objects it scans; as long as those objects are the catalog's current
  ones (and their attached indexes and statistics are unchanged), the plan
  is exactly the plan a fresh compilation would produce.
* **Every catalog mutation funnels through a bump hook.**  Replacing a
  table (``create(replace=True)``), dropping one, creating or dropping an
  index (including the deferred auto-index builds that materialize on
  first planner access), refreshing statistics, and world-table growth all
  end up calling :func:`bump_relation` on the affected relation object —
  which evicts *exactly* the entries whose plans depend on it and bumps
  the catalog version of every registered watcher
  (:class:`~repro.relational.database.Database` /
  :class:`~repro.core.udatabase.UDatabase` instances register themselves
  via :func:`watch_relation`).

Entries additionally record the per-relation *epoch* of each dependency at
insert time and re-validate on lookup, so even a hypothetical missed bump
cannot surface a stale plan — the belt to the eviction hooks' braces.

Keys identify base relations and the owning catalog by ``id()``.  That is
sound precisely because every entry holds strong references to them (its
``deps`` and ``pins``): an id can only be recycled after the object dies,
and neither can die while the entry is alive.  Nothing else in a key is an
identity: a ``$n`` slot keys by its index, so a plan is shared by every
statement, session and thread whose query has the same structure, and
what differs between their executions (``$n`` values, operator counters,
``conf`` summaries) lives in each execution's frame
(:func:`~repro.relational.expressions.executing`), never on the cached
tree.

Serving-layer duties (PR 5):

* **Thread safety.**  Every cache operation — lookup, store, invalidation,
  stats — runs under one module lock, so N sessions executing cached plans
  concurrently (and a DDL thread bumping relations under them) never see a
  torn cache.  The lock is held for dict bookkeeping only, never during
  planning or execution.
* **LRU eviction with planning-cost weights and a hot-set pin.**  A full
  cache no longer clears wholesale: the victim is the cheapest-to-replan
  entry among the least-recently-used few (a GreedyDual-style compromise —
  recency decides the candidate window, replan cost decides inside it),
  and entries hit often enough are *pinned* (up to half the capacity) so a
  burst of one-off ad-hoc shapes cannot wash out the serving hot set.
* **Per-entry cost class.**  :func:`cost_class_of` classifies a physical
  tree (``point`` / ``scan`` / ``join`` / ``heavy``) and the class is
  stored on the entry; the admission layer reads it back through
  :func:`cached_cost_class` to pick per-class concurrency limits before
  executing (a cached point lookup is not rate-limited like a cold
  six-way join).

:func:`plan_cache_stats` / :func:`reset_plan_cache` mirror the expression
compile cache's introspection hooks (tests and benchmarks use them to
prove second-run queries are planning-free).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple
from weakref import WeakSet

from .algebra import (
    ConfCompute,
    Difference,
    Distinct,
    Extend,
    Join,
    Plan,
    Product,
    Project,
    ProjectAs,
    Rename,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from .expressions import structural_key
from .relation import Relation

__all__ = [
    "LruHotCache",
    "plan_cache_stats",
    "reset_plan_cache",
    "bump_relation",
    "relation_epoch",
    "watch_relation",
    "cache_lookup",
    "cache_store",
    "cache_contains",
    "cached_cost_class",
    "record_observed_rows",
    "plan_cache_entries",
    "publish_plan_cache_metrics",
    "cost_class_of",
    "build_key",
    "mark_cached",
    "logical_plan_key",
    "plan_relations",
    "COST_CLASSES",
]


#: Cache capacity.  Eviction is LRU with planning-cost weights (see
#: :func:`_evict_one`), not wholesale clearing — a serving workload churns
#: ad-hoc shapes through the cache and must not lose its hot set.
_PLAN_CACHE_LIMIT = 256

#: Entries hit at least this often join the pinned hot set (exempt from
#: LRU eviction, still evicted by invalidation).
_HOT_PIN_HITS = 8

#: At most this many entries may be pinned (half the capacity), so the
#: unpinned remainder always leaves room for new shapes.
_HOT_PIN_CAP = _PLAN_CACHE_LIMIT // 2

#: Eviction scans this many least-recently-used unpinned entries and
#: evicts the one that was cheapest to plan (recency picks the window,
#: replan cost picks the victim inside it).
_EVICT_WINDOW = 8

#: The admission-relevant cost classes, cheapest first (``conf`` —
#: confidence computation, potentially #P-hard — is ordered last).
COST_CLASSES = ("point", "scan", "join", "heavy", "conf")

#: A root estimate at or below this (with no joins) counts as a point
#: lookup even without an index-point access path.
_POINT_ROWS_LIMIT = 64.0

#: Join plans estimated above this (or with > 2 joins) are "heavy".
_HEAVY_ROWS_LIMIT = 50_000.0
_HEAVY_JOIN_COUNT = 2


class LruHotCache:
    """A bounded LRU cache with a pinned hot set — the reusable half of
    this module's eviction policy.

    Recency picks the victim (least-recently-used first); entries hit at
    least ``hot_hits`` times are *pinned* (up to ``pin_cap``, half the
    capacity by default) and skipped by eviction, so a burst of one-off
    shapes cannot wash out a serving workload's hot set.  When every
    entry is pinned the LRU head goes regardless — progress beats
    pinning.  Thread-safe; values must not be ``None`` (``get`` returns
    ``None`` for a miss).

    The plan cache itself layers dependency tracking, epoch validation,
    and plan-cost weights on top of this shape; simpler compile caches
    (the expression kernel cache) use this class directly instead of
    wholesale clearing at capacity.
    """

    __slots__ = (
        "capacity",
        "hot_hits",
        "pin_cap",
        "evictions",
        "_lock",
        "_entries",
        "_pinned",
    )

    def __init__(
        self,
        capacity: int,
        hot_hits: Optional[int] = None,
        pin_cap: Optional[int] = None,
    ):
        self.capacity = max(1, int(capacity))
        self.hot_hits = _HOT_PIN_HITS if hot_hits is None else hot_hits
        self.pin_cap = self.capacity // 2 if pin_cap is None else pin_cap
        self.evictions = 0
        self._lock = threading.Lock()
        #: key -> [value, hits, pinned] in least-recently-used-first order.
        self._entries: "OrderedDict[Any, list]" = OrderedDict()
        self._pinned = 0

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            slot = self._entries.get(key)
            if slot is None:
                return None
            slot[1] += 1
            if not slot[2] and slot[1] >= self.hot_hits and self._pinned < self.pin_cap:
                slot[2] = True
                self._pinned += 1
            self._entries.move_to_end(key)
            return slot[0]

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            slot = self._entries.get(key)
            if slot is not None:
                slot[0] = value
                self._entries.move_to_end(key)
                return
            while len(self._entries) >= self.capacity:
                self._evict_one()
            self._entries[key] = [value, 0, False]

    def _evict_one(self) -> None:
        """Evict the LRU unpinned entry (caller holds the lock)."""
        victim = None
        for key, slot in self._entries.items():  # iterates LRU-first
            if not slot[2]:
                victim = key
                break
        if victim is None:  # everything pinned: evict the stalest anyway
            victim = next(iter(self._entries))
            self._pinned -= 1
        self._entries.pop(victim)
        self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pinned = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pinned(self) -> int:
        return self._pinned


class _Entry:
    __slots__ = (
        "key", "payload", "deps", "pins", "cost_class", "plan_cost", "hits", "hot",
        "estimated_rows", "observed_rows", "observed_runs", "fingerprint",
    )

    def __init__(
        self,
        key: Tuple,
        payload: Any,
        deps: Sequence[Tuple[Relation, int]],
        pins: Tuple,
        cost_class: str,
        plan_cost: float,
        fingerprint: Optional[str] = None,
    ):
        self.key = key
        self.payload = payload
        #: (relation, epoch-at-insert) per base relation the plan scans or
        #: probes.  The strong reference is what keeps ``id()``-based keys
        #: sound; the epoch is the lookup-time staleness backstop.
        self.deps = list(deps)
        #: Extra strong references: the owning catalog, which the key names
        #: by ``id()``.
        self.pins = pins
        #: Admission cost class of the cached plan (see :data:`COST_CLASSES`).
        self.cost_class = cost_class
        #: Seconds the optimize+plan pipeline took — the eviction weight
        #: (evicting a plan that took 10 ms to build costs ten 1 ms plans).
        self.plan_cost = plan_cost
        self.hits = 0
        #: True once the entry joined the pinned hot set.
        self.hot = False
        #: Estimate-vs-actual feedback (see :func:`record_observed_rows`):
        #: the optimizer's root-row estimate, the most recent actual row
        #: count, and how many executions have reported one.  This is the
        #: raw input for the ROADMAP plan-feedback loop (re-optimize plans
        #: whose estimates diverge from actuals).
        self.estimated_rows: Optional[float] = None
        self.observed_rows: Optional[int] = None
        self.observed_runs = 0
        #: Workload fingerprint (literals/bindings normalized out) computed
        #: once at entry creation; joins this entry against the obs
        #: workload history and slowlog lines.
        self.fingerprint = fingerprint


#: One lock for all cache state.  RLock: ``bump_relation`` can re-enter
#: through watcher callbacks that consult the cache.
_lock = threading.RLock()

#: Key -> entry in least-recently-used-first order (lookups move-to-end).
_entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
#: Reverse dependency map: id(relation) -> keys of entries scanning it.
#: Sound and leak-free because every mapped id belongs to a relation some
#: live entry pins; the mapping is removed with its last entry.
_by_relation: Dict[int, Set[Tuple]] = {}

_hits = 0
_misses = 0
_invalidations = 0
_evictions = 0
_pinned = 0


# ----------------------------------------------------------------------
# versioning hooks
# ----------------------------------------------------------------------
# The per-relation mutation epoch and watcher set live *on the relation
# object* (``_plan_epoch`` / ``_plan_watchers`` slots), so their lifetime
# is exactly the relation's — no global registry to prune, no id-recycling
# corner cases.


def relation_epoch(relation: Relation) -> int:
    """The relation's current mutation epoch (0 until first bump)."""
    return getattr(relation, "_plan_epoch", 0)


def watch_relation(relation: Relation, owner: Any) -> None:
    """Register ``owner`` to have ``_bump_catalog_version()`` called when
    this relation object mutates (index built/dropped, stats refreshed,
    replaced in a catalog).  Held weakly — watching never pins a catalog."""
    with _lock:
        watchers = getattr(relation, "_plan_watchers", None)
        if watchers is None:
            watchers = WeakSet()
            relation._plan_watchers = watchers
        watchers.add(owner)


def bump_relation(relation: Relation) -> int:
    """Record a mutation of ``relation``: bump its epoch, notify watching
    catalogs, and evict exactly the cache entries whose plans depend on it.

    Returns the number of entries evicted.  This is *the* invalidation
    hook: every catalog mutation (table replacement/drop, index DDL, lazy
    index materialization, statistics refresh, world-table refresh)
    reaches the cache through here.  Thread-safe: concurrent executions of
    already-looked-up plans are unaffected (they hold their own physical
    trees), while the next lookup re-plans.
    """
    global _invalidations
    with _lock:
        relation._plan_epoch = getattr(relation, "_plan_epoch", 0) + 1
        for owner in tuple(getattr(relation, "_plan_watchers", None) or ()):
            bump = getattr(owner, "_bump_catalog_version", None)
            if bump is not None:
                bump()
        evicted = 0
        for entry_key in tuple(_by_relation.get(id(relation), ())):
            entry = _entries.get(entry_key)
            if entry is not None and any(dep is relation for dep, _ in entry.deps):
                _remove(entry)
                evicted += 1
        _invalidations += evicted
        return evicted


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
def _remove(entry: _Entry) -> None:
    global _pinned
    if _entries.pop(entry.key, None) is not None and entry.hot:
        _pinned -= 1
    for dep, _epoch in entry.deps:
        keys = _by_relation.get(id(dep))
        if keys is not None:
            keys.discard(entry.key)
            if not keys:
                _by_relation.pop(id(dep), None)


def _valid(entry: _Entry) -> bool:
    return all(relation_epoch(dep) == epoch for dep, epoch in entry.deps)


def _evict_one() -> None:
    """Evict one entry: the cheapest-to-replan among the LRU few.

    Pinned (hot) entries are skipped; if every candidate is pinned the LRU
    head goes regardless (progress beats pinning).  Caller holds the lock.
    """
    global _evictions
    window: List[_Entry] = []
    for entry in _entries.values():  # iterates LRU-first
        if not entry.hot:
            window.append(entry)
            if len(window) >= _EVICT_WINDOW:
                break
    if window:
        victim = min(window, key=lambda e: e.plan_cost)
    else:  # everything pinned: evict the stalest entry anyway
        victim = next(iter(_entries.values()))
    _remove(victim)
    _evictions += 1


def cache_lookup(key: Optional[Tuple]) -> Optional[Any]:
    """The cached payload for ``key``, or ``None`` (counted as a miss).

    A ``None`` key (an uncacheable query shape) always misses.  Entries
    whose dependency epochs drifted — which the eviction hooks should have
    removed already — are dropped here rather than returned stale.  A hit
    refreshes the entry's LRU position and, past :data:`_HOT_PIN_HITS`
    hits, pins it into the hot set.
    """
    global _hits, _misses, _invalidations, _pinned
    with _lock:
        if key is None:
            _misses += 1
            return None
        entry = _entries.get(key)
        if entry is None:
            _misses += 1
            return None
        if not _valid(entry):  # pragma: no cover - backstop; hooks evict first
            _remove(entry)
            _invalidations += 1
            _misses += 1
            return None
        _hits += 1
        entry.hits += 1
        if not entry.hot and entry.hits >= _HOT_PIN_HITS and _pinned < _HOT_PIN_CAP:
            entry.hot = True
            _pinned += 1
        _entries.move_to_end(key)
        return entry.payload


def cache_store(
    key: Optional[Tuple],
    payload: Any,
    deps: Sequence[Relation],
    pins: Tuple = (),
    cost_class: str = "scan",
    plan_cost: float = 0.0,
    guard: Optional[Callable[[], bool]] = None,
    fingerprint: Optional[str] = None,
) -> None:
    """Insert a planned payload under ``key`` (``None`` key: not cached).

    ``deps`` are the base relations the plan reads; their *current* epochs
    are recorded, so a store that races a mutation during its own planning
    (a lazy index build, say) self-describes correctly.  ``plan_cost``
    (seconds spent planning) weights eviction; ``cost_class`` is the
    admission classification served back by :func:`cached_cost_class`.

    ``guard`` closes the catalog-resolution race: a planner that resolved
    its relations from a live catalog, then lost the CPU while a writer
    swapped that catalog, would otherwise store a plan over the *old*
    relation objects — recording their already-bumped epochs, so the
    entry self-describes as valid and serves stale answers forever.
    The guard (e.g. ``catalog_version`` unchanged since before planning)
    runs under the cache lock — the same lock :func:`bump_relation` holds
    across its epoch bump, version bump, and eviction sweep — so either
    the swap committed first and the guard refuses the insert, or the
    insert lands first and the swap's sweep evicts it.
    """
    if key is None:
        return
    entry = _Entry(
        key, payload, [(dep, relation_epoch(dep)) for dep in deps], pins,
        cost_class, plan_cost, fingerprint,
    )
    with _lock:
        if guard is not None and not guard():
            return  # the catalog moved mid-planning: unsafe to cache
        old = _entries.get(key)
        if old is not None:
            _remove(old)
        while len(_entries) >= _PLAN_CACHE_LIMIT:
            _evict_one()
        _entries[key] = entry
        for dep in deps:
            _by_relation.setdefault(id(dep), set()).add(key)


def cache_contains(key: Optional[Tuple]) -> bool:
    """Whether a valid entry exists for ``key`` (no stats counted)."""
    with _lock:
        if key is None:
            return False
        entry = _entries.get(key)
        return entry is not None and _valid(entry)


def cached_cost_class(key: Optional[Tuple]) -> Optional[str]:
    """The cost class of a *valid* cached entry, or ``None`` when cold.

    The admission layer's peek: no stats are counted and the LRU order is
    untouched, so classifying a request never perturbs the cache.
    """
    with _lock:
        if key is None:
            return None
        entry = _entries.get(key)
        if entry is None or not _valid(entry):
            return None
        return entry.cost_class


def record_observed_rows(
    key: Optional[Tuple], estimated: Optional[float], actual: Optional[int]
) -> None:
    """Record one execution's estimate-vs-actual root row counts on the
    entry for ``key`` (no-op for uncached keys or evicted entries).

    Called by ``execute_query`` after every cached execution, reusing the
    ``actual_rows`` counts the physical operators already maintain — no
    extra measurement run.  The accumulated deltas are readable through
    :func:`plan_cache_entries` and surface as the
    ``plan_estimate_error_rows`` gauge.
    """
    if key is None or actual is None:
        return
    with _lock:
        entry = _entries.get(key)
        if entry is None:
            return
        entry.estimated_rows = None if estimated is None else float(estimated)
        entry.observed_rows = int(actual)
        entry.observed_runs += 1


def plan_cache_entries() -> List[dict]:
    """Per-entry introspection: cost class, hits, plan cost, and the
    estimate-vs-actual feedback recorded so far (MRU first)."""
    with _lock:
        out = []
        for entry in reversed(_entries.values()):  # MRU first
            out.append(
                {
                    "cost_class": entry.cost_class,
                    "plan_cost": entry.plan_cost,
                    "hits": entry.hits,
                    "hot": entry.hot,
                    "estimated_rows": entry.estimated_rows,
                    "observed_rows": entry.observed_rows,
                    "observed_runs": entry.observed_runs,
                    "fingerprint": entry.fingerprint,
                }
            )
        return out


def plan_cache_stats() -> dict:
    """Hit/miss/invalidation/eviction counters and sizes of the plan cache."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "invalidations": _invalidations,
            "evictions": _evictions,
            "pinned": _pinned,
            "size": len(_entries),
        }


def publish_plan_cache_metrics() -> None:
    """Export the cache internals as registry gauges.

    Mirrors ``segment_health(publish=True)``: counters that already exist
    in :func:`plan_cache_stats` — hits, misses, invalidations, evictions,
    pinned, size — plus per-cost-class entry counts become gauges, so the
    ``metrics`` Prometheus/JSON exposition carries the cache state, not
    only the ``stats`` wire op.  Called by the server's stats/metrics
    paths; a no-op while ``REPRO_OBS=off``.
    """
    from ..obs import gauge

    with _lock:
        stats = {
            "hits": _hits,
            "misses": _misses,
            "invalidations": _invalidations,
            "evictions": _evictions,
            "pinned": _pinned,
            "size": len(_entries),
        }
        per_class: Dict[str, int] = {}
        for entry in _entries.values():
            per_class[entry.cost_class] = per_class.get(entry.cost_class, 0) + 1
    for name, value in stats.items():
        gauge(f"plan_cache_{name}", f"Plan cache {name}").set(value)
    entries_gauge = gauge("plan_cache_entries", "Plan-cache entries by cost class")
    for cost_class in COST_CLASSES + ("cold",):
        entries_gauge.set(per_class.get(cost_class, 0), cls=cost_class)


def reset_plan_cache() -> None:
    """Empty the plan cache and zero its counters (test/bench hook).

    Epochs and watcher registrations live on the relation objects
    themselves and survive: they describe live catalog state, not cached
    plans, and resetting them could resurrect the very staleness the
    epochs guard against.
    """
    global _hits, _misses, _invalidations, _evictions, _pinned
    with _lock:
        _entries.clear()
        _by_relation.clear()
        _hits = 0
        _misses = 0
        _invalidations = 0
        _evictions = 0
        _pinned = 0


def mark_cached(text: str) -> str:
    """Append the ``(cached)`` marker to an EXPLAIN text's top line."""
    first, _, rest = text.partition("\n")
    return first + "  (cached)" + ("\n" + rest if rest else "")


def build_key(builder: Callable[[], Tuple]) -> Optional[Tuple]:
    """Run a key builder, mapping ``TypeError`` (uncacheable shape) to None.

    The shared front half of the cache protocol: callers build their key
    with :func:`logical_plan_key` /
    :func:`repro.core.translate.query_structure_key` inside ``builder``
    and get ``None`` — "plan uncached" — for unknown node or expression
    shapes instead of handling the exception at every call site.
    """
    try:
        return builder()
    except TypeError:
        return None


# ----------------------------------------------------------------------
# cost classification
# ----------------------------------------------------------------------
def cost_class_of(physical: Any) -> str:
    """Classify a physical plan for admission control.

    * ``point`` — no joins and either an index point/range access or a
      tiny estimated answer, or an indexed point access whose every join
      is an index probe (the tuple-id merges of a partitioned relation)
      with a tiny estimate: the cached-point-lookup class a server can
      admit by the hundreds,
    * ``scan``  — a join-free pipeline over one relation,
    * ``join``  — up to :data:`_HEAVY_JOIN_COUNT` joins with a moderate
      estimate (the partition-merge shape of translated U-queries),
    * ``heavy`` — deeper join trees or large estimates (the cold six-way
      join a server must not admit unboundedly),
    * ``conf``  — any plan containing a confidence computation: #P-hard in
      the worst case, so admission limits it separately from everything
      else regardless of the shape underneath.

    Derived from the plan alone (operator shapes + the optimizer's
    ``estimate_rows`` results attached to the nodes), so the class is
    stable across executions and safe to cache on the entry.
    """
    from .physical import (
        Confidence,
        HashJoin,
        IndexNestedLoopJoin,
        IndexScan,
        MergeJoin,
        NestedLoopJoin,
        SemiJoinOp,
        _NO_POINT,
    )

    if isinstance(physical, Confidence):
        return "conf"
    joins = 0
    probe_joins = 0
    indexed_access = False
    point_access = False
    stack = [physical]
    while stack:
        node = stack.pop()
        if isinstance(
            node, (HashJoin, IndexNestedLoopJoin, MergeJoin, NestedLoopJoin, SemiJoinOp)
        ):
            joins += 1
            probe_joins += isinstance(node, IndexNestedLoopJoin)
        if isinstance(node, IndexScan) and not node.probe:
            if node.point is not _NO_POINT:
                indexed_access = point_access = True
            elif node.lower is not None or node.upper is not None:
                indexed_access = True
        stack.extend(node.children)
    estimate = float(getattr(physical, "estimated_rows", 0.0) or 0.0)
    if joins == 0:
        if indexed_access or estimate <= _POINT_ROWS_LIMIT:
            return "point"
        return "scan"
    if joins == probe_joins and point_access and estimate <= _POINT_ROWS_LIMIT:
        # a point lookup reassembled from its vertical partitions: every
        # join is a tuple-id probe per looked-up row, however many there are
        return "point"
    if joins <= _HEAVY_JOIN_COUNT and estimate <= _HEAVY_ROWS_LIMIT:
        return "join"
    return "heavy"


# ----------------------------------------------------------------------
# normalized keys and dependency extraction for logical plans
# ----------------------------------------------------------------------
def logical_plan_key(plan: Plan) -> Tuple:
    """A hashable key identifying a logical plan up to structure.

    Base relations are identified by object id (sound because cache
    entries pin them — see the module docstring); predicates use
    :func:`~repro.relational.expressions.structural_key`, so a ``$n``
    parameter slot keys by its index, never by a value.
    Raises ``TypeError`` for unknown node or expression shapes — callers
    treat that as "not cacheable" and plan uncached.
    """
    if isinstance(plan, Scan):
        return ("scan", id(plan.relation), plan.name, plan.alias)
    if isinstance(plan, Select):
        return ("select", logical_plan_key(plan.child), structural_key(plan.predicate))
    if isinstance(plan, Project):
        return ("project", logical_plan_key(plan.child), tuple(plan.columns))
    if isinstance(plan, ProjectAs):
        return ("project-as", logical_plan_key(plan.child), tuple(plan.items))
    if isinstance(plan, Extend):
        return (
            "extend",
            logical_plan_key(plan.child),
            tuple((name, structural_key(expr)) for name, expr in plan.items),
        )
    if isinstance(plan, Join):
        return (
            "join",
            logical_plan_key(plan.left),
            logical_plan_key(plan.right),
            structural_key(plan.predicate),
        )
    if isinstance(plan, SemiJoin):
        return (
            "semijoin",
            logical_plan_key(plan.left),
            logical_plan_key(plan.right),
            structural_key(plan.predicate),
        )
    if isinstance(plan, Product):
        return ("product", logical_plan_key(plan.left), logical_plan_key(plan.right))
    if isinstance(plan, Union):
        return ("union", logical_plan_key(plan.left), logical_plan_key(plan.right))
    if isinstance(plan, Difference):
        return ("difference", logical_plan_key(plan.left), logical_plan_key(plan.right))
    if isinstance(plan, Distinct):
        return ("distinct", logical_plan_key(plan.child))
    if isinstance(plan, Rename):
        return (
            "rename",
            logical_plan_key(plan.child),
            tuple(sorted(plan.mapping.items())),
        )
    if isinstance(plan, ConfCompute):
        return (
            "conf",
            logical_plan_key(plan.child),
            plan.d_width,
            plan.tid_count,
            tuple(plan.value_names),
            id(plan.world_table),
            plan.method,
            plan.epsilon,
            plan.delta,
            plan.seed,
        )
    raise TypeError(f"no plan-cache key for {type(plan).__name__}")


def plan_relations(plan: Plan) -> List[Relation]:
    """Every base relation a logical plan scans (the entry's dependencies)."""
    if isinstance(plan, Scan):
        return [plan.relation]
    out: List[Relation] = []
    for child in plan.children:
        out.extend(plan_relations(child))
    return out
