"""The prepared-plan cache: repeated queries go executor-only.

Translation + optimization + physical planning cost a few milliseconds per
query — real money once the per-execution work is microseconds.  The cache
maps

    (normalized query structure, owner catalog, planner knobs)
        -> PlanRecord

so a repeated ``Database.run`` / ``execute_query`` skips the whole
translate -> optimize -> plan pipeline and goes straight to the executor.
There is one of each thing here:

* **One record.**  :class:`PlanRecord` holds the physical tree and every
  other fact that is a function of the plan alone (the U-relation ``wrap``
  structure, the workload ``profile``, the admission ``cost_class``).  It
  is what :func:`cache_store` takes, what :func:`cache_lookup` returns to
  every caller, and the only place such a fact lives: it is computed where
  the plan is built and no execution derives it again.
* **One eviction policy.**  Entries live in an :class:`LruHotCache`, the
  bounded LRU with a pinned hot set that the expression kernel cache uses
  too: recency picks the victim, and entries hit often enough are pinned
  (up to half the capacity) so a burst of one-off ad-hoc shapes cannot
  wash out the serving hot set.
* **One lookup protocol.**  :func:`cached_plan` is the ``plan`` span ->
  lookup -> build -> store sequence; ``Database`` and the U-relation
  translation both call it with a key and a builder that runs on a miss.

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

Every cache operation — lookup, store, invalidation, stats — runs under
one module lock, so N sessions executing cached plans concurrently (and a
DDL thread bumping relations under them) never see a torn cache.  The lock
is held for dict bookkeeping only, never during planning or execution.
The admission layer peeks at a request's class through
:func:`cached_cost_class`, which counts nothing and leaves the LRU order
alone; :func:`plan_cache_stats` / :func:`reset_plan_cache` mirror the
expression compile cache's introspection hooks (tests and benchmarks use
them to prove second-run queries are planning-free).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple
from weakref import WeakSet

from ..obs import gauge
from ..obs import span as obs_span
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
    "PlanRecord",
    "plan_cache_stats",
    "reset_plan_cache",
    "bump_relation",
    "relation_epoch",
    "watch_relation",
    "cached_plan",
    "cache_lookup",
    "cache_store",
    "cached_cost_class",
    "publish_plan_cache_metrics",
    "cost_class_of",
    "build_key",
    "mark_cached",
    "logical_plan_key",
    "plan_relations",
    "COST_CLASSES",
]


#: Plan-cache capacity (read when the cache is built: at import and by
#: :func:`reset_plan_cache`).
_PLAN_CACHE_LIMIT = 256

#: Entries hit at least this often join a cache's pinned hot set (exempt
#: from LRU eviction, still removed by ``pop``).
_HOT_PIN_HITS = 8

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
    """A bounded LRU cache with a pinned hot set: the eviction policy of
    the plan cache and of the expression kernel cache.

    Recency picks the victim (least-recently-used first); entries hit at
    least :data:`_HOT_PIN_HITS` times are *pinned* (up to half the
    capacity) and skipped by eviction, so a burst of one-off shapes cannot
    wash out a serving workload's hot set.  When every entry is pinned the
    LRU head goes regardless — progress beats pinning.  Thread-safe;
    values must not be ``None`` (``get`` returns ``None`` for a miss).
    ``put`` returns what left the cache, which is how an owner that
    indexes its entries elsewhere (the plan cache's reverse dependency
    map) keeps that index in step.
    """

    __slots__ = (
        "capacity",
        "pin_cap",
        "evictions",
        "_lock",
        "_entries",
        "pinned",
    )

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self.pin_cap = self.capacity // 2
        self.evictions = 0
        self._lock = threading.Lock()
        #: key -> [value, hits, pinned] in least-recently-used-first order.
        self._entries: "OrderedDict[Any, list]" = OrderedDict()
        self.pinned = 0

    def get(self, key: Any) -> Optional[Any]:
        """The value under ``key``: counts a hit, refreshes its recency and,
        past :data:`_HOT_PIN_HITS` hits, pins it."""
        with self._lock:
            slot = self._entries.get(key)
            if slot is None:
                return None
            slot[1] += 1
            if not slot[2] and slot[1] >= _HOT_PIN_HITS and self.pinned < self.pin_cap:
                slot[2] = True
                self.pinned += 1
            self._entries.move_to_end(key)
            return slot[0]

    def peek(self, key: Any) -> Optional[Any]:
        """The value under ``key`` with no hit counted and the order untouched."""
        with self._lock:
            slot = self._entries.get(key)
            return None if slot is None else slot[0]

    def put(self, key: Any, value: Any) -> List[Tuple[Any, Any]]:
        """Insert ``value`` under ``key``; the ``(key, value)`` pairs that
        left are returned: the one it replaced, those evicted to make room."""
        with self._lock:
            replaced = self._remove(key)
            gone = [] if replaced is None else [(key, replaced)]
            while len(self._entries) >= self.capacity:
                gone.append(self._evict_one())
            self._entries[key] = [value, 0, False]
            return gone

    def _evict_one(self) -> Tuple[Any, Any]:
        """Evict the LRU unpinned entry, or the LRU head when every entry
        is pinned (caller holds the lock)."""
        victim = next(
            (key for key, slot in self._entries.items() if not slot[2]),
            next(iter(self._entries)),
        )
        self.evictions += 1
        return victim, self._remove(victim)

    def _remove(self, key: Any) -> Optional[Any]:
        slot = self._entries.pop(key, None)
        if slot is None:
            return None
        if slot[2]:
            self.pinned -= 1
        return slot[0]

    def pop(self, key: Any) -> Optional[Any]:
        """Remove ``key`` (pinned or not) and return its value, else ``None``."""
        with self._lock:
            return self._remove(key)

    def values(self) -> List[Any]:
        """The cached values, least recently used first."""
        with self._lock:
            return [slot[0] for slot in self._entries.values()]

    def __len__(self) -> int:
        return len(self._entries)


class PlanRecord(NamedTuple):
    """What planning produced, and the only place a plan-only fact lives.

    Built where the plan is built, stored by :func:`cache_store`, returned
    by :func:`cache_lookup` to every caller; immutable and shared by every
    execution of the plan.
    """

    #: The fully planned physical tree.
    physical: Any
    #: ``None`` when the plan's output is the answer relation (a
    #: ``Database`` plan, a top-level ``Poss`` / ``Conf``); otherwise the
    #: ``(d_width, tid_names, value_names, canonical)`` column structure
    #: that wraps the result as a U-relation.
    wrap: Optional[Tuple]
    #: What the workload history keeps of the plan (fingerprint, plan key,
    #: relations; see ``repro.core.translate._workload_profile``), or ``None``.
    profile: Optional[dict]
    #: Admission cost class (see :data:`COST_CLASSES`, :func:`cost_class_of`).
    cost_class: str


class _Entry(NamedTuple):
    record: PlanRecord
    #: (relation, epoch-at-insert) per base relation the plan scans or
    #: probes.  The strong reference is what keeps ``id()``-based keys
    #: sound; the epoch is the lookup-time staleness backstop.
    deps: List[Tuple[Relation, int]]
    #: Extra strong references: the owning catalog, which the key names
    #: by ``id()``.
    pins: Tuple


#: One lock for all cache state.  RLock: ``bump_relation`` can re-enter
#: through watcher callbacks that consult the cache.
_lock = threading.RLock()

#: Key -> entry.  Eviction at capacity is the LRU + hot-pin policy of
#: :class:`LruHotCache`, not wholesale clearing — a serving workload churns
#: ad-hoc shapes through the cache and must not lose its hot set.
_entries = LruHotCache(_PLAN_CACHE_LIMIT)
#: Reverse dependency map: id(relation) -> keys of entries scanning it.
#: Sound and leak-free because every mapped id belongs to a relation some
#: live entry pins; the mapping is removed with its last entry.
_by_relation: Dict[int, Set[Tuple]] = {}

_hits = 0
_misses = 0
_invalidations = 0


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
        for key in tuple(_by_relation.get(id(relation), ())):
            entry = _entries.peek(key)
            if entry is not None and any(dep is relation for dep, _ in entry.deps):
                _unhook(key, _entries.pop(key))
                evicted += 1
        _invalidations += evicted
        return evicted


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
def _unhook(key: Tuple, entry: _Entry) -> None:
    """Forget an entry that left ``_entries`` in the reverse dependency map."""
    for dep, _epoch in entry.deps:
        keys = _by_relation.get(id(dep))
        if keys is not None:
            keys.discard(key)
            if not keys:
                _by_relation.pop(id(dep), None)


def _valid(entry: _Entry) -> bool:
    return all(relation_epoch(dep) == epoch for dep, epoch in entry.deps)


def cache_lookup(key: Optional[Tuple]) -> Optional[PlanRecord]:
    """The cached :class:`PlanRecord` for ``key``, or ``None`` (counted as
    a miss).

    A ``None`` key (an uncacheable query shape) always misses.  Entries
    whose dependency epochs drifted — which the eviction hooks should have
    removed already — are dropped here rather than returned stale.  A hit
    refreshes the entry's LRU position and, past :data:`_HOT_PIN_HITS`
    hits, pins it into the hot set.
    """
    global _hits, _misses, _invalidations
    with _lock:
        entry = None if key is None else _entries.get(key)
        if entry is not None and not _valid(entry):  # pragma: no cover - backstop; hooks evict first
            _unhook(key, _entries.pop(key))
            _invalidations += 1
            entry = None
        if entry is None:
            _misses += 1
            return None
        _hits += 1
        return entry.record


def cache_store(
    key: Optional[Tuple],
    record: PlanRecord,
    deps: Sequence[Relation],
    pins: Tuple = (),
    guard: Optional[Callable[[], bool]] = None,
) -> None:
    """Insert a plan's record under ``key`` (``None`` key: not cached).

    ``deps`` are the base relations the plan reads; their *current* epochs
    are recorded, so a store that races a mutation during its own planning
    (a lazy index build, say) self-describes correctly.  ``pins`` are kept
    alive with the entry (the catalog the key names by ``id()``).

    ``guard`` closes the catalog-resolution race: a planner that resolved
    its relations from a live catalog, then lost the CPU while a writer
    swapped that catalog, would otherwise store a plan over the *old*
    relation objects — recording their already-bumped epochs, so the
    entry self-describes as valid and serves stale answers forever.
    The guard (e.g. the catalog's identity map unchanged since before
    planning) runs under the cache lock — the same lock
    :func:`bump_relation` holds across its epoch bump, version bump, and
    eviction sweep — so either the swap committed first and the guard
    refuses the insert, or the insert lands first and the swap's sweep
    evicts it.
    """
    if key is None:
        return
    entry = _Entry(record, [(dep, relation_epoch(dep)) for dep in deps], pins)
    with _lock:
        if guard is not None and not guard():
            return  # the catalog moved mid-planning: unsafe to cache
        for gone_key, gone in _entries.put(key, entry):
            _unhook(gone_key, gone)
        for dep in deps:
            _by_relation.setdefault(id(dep), set()).add(key)


def cached_plan(key: Optional[Tuple], build: Callable[[], Tuple]) -> Tuple[PlanRecord, bool]:
    """The record for ``key`` and whether the cache served it: the one
    ``plan`` span -> lookup -> build -> store sequence.

    ``build()`` runs only after a miss, outside the cache lock, and
    returns ``(record, deps, pins, guard)`` as :func:`cache_store` takes
    them.  Two callers that miss on one key at once both build; the
    records are interchangeable and the last store wins.
    """
    with obs_span("plan") as sp:
        record = cache_lookup(key)
        sp.set(cached=record is not None)
        if record is not None:
            return record, True
        record, deps, pins, guard = build()
        cache_store(key, record, deps, pins, guard)
    return record, False


def cached_cost_class(key: Optional[Tuple]) -> Optional[str]:
    """The cost class of a *valid* cached entry, or ``None`` when cold.

    The admission layer's peek: no stats are counted and the LRU order is
    untouched, so classifying a request never perturbs the cache.
    """
    with _lock:
        entry = None if key is None else _entries.peek(key)
        if entry is None or not _valid(entry):
            return None
        return entry.record.cost_class


def plan_cache_stats() -> dict:
    """Hit/miss/invalidation/eviction counters and sizes of the plan cache."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "invalidations": _invalidations,
            "evictions": _entries.evictions,
            "pinned": _entries.pinned,
            "size": len(_entries),
        }


def publish_plan_cache_metrics() -> None:
    """Export the cache internals as registry gauges.

    Mirrors ``segment_health(publish=True)``: the counters of
    :func:`plan_cache_stats` plus per-cost-class entry counts become
    gauges, so the ``metrics`` Prometheus/JSON exposition carries the
    cache state, not only the ``stats`` wire op.  Called by the server's
    stats/metrics paths; a no-op while ``REPRO_OBS=off``.
    """
    with _lock:
        stats = plan_cache_stats()
        per_class: Dict[str, int] = {}
        for entry in _entries.values():
            cost_class = entry.record.cost_class
            per_class[cost_class] = per_class.get(cost_class, 0) + 1
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
    global _entries, _hits, _misses, _invalidations
    with _lock:
        _entries = LruHotCache(_PLAN_CACHE_LIMIT)  # fresh pin/eviction counters
        _by_relation.clear()
        _hits = 0
        _misses = 0
        _invalidations = 0


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
