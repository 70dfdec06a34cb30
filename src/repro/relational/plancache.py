"""The prepared-plan cache: repeated queries go executor-only.

Translation + optimization + physical planning cost a few milliseconds per
query — real money once the per-execution work is microseconds.  The cache
maps

    ("uquery", owning UDatabase, normalized query structure) -> PlanRecord

one plan per query shape, so a repeated ``execute_query`` (and every
served statement) skips the whole translate -> optimize -> plan pipeline
and goes straight to the executor.  The reference
(``repro.core.translate.reference_query``) evaluates the logical plan
and never comes here.  There is one of each thing here:

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
  lookup -> build -> store sequence; its one caller, the U-relation
  translation, hands it a key and a builder that runs on a miss.

A cached U-query plan names the partitions it reads; it does not hold
them.  Its leaves are *slots* (:func:`name_slots`):
a ``u_<rel>_<attrs>`` label and an index name, resolved per execution in
the versions of the catalog the calling thread's frame holds, read once
before the lookup.  A write publishes new partition versions and
changes no plan, so it evicts nothing.  Soundness rests on *planning
facts*:

* **A plan is valid over any version carrying the facts it was built
  on.**  The entry records, per slot, the schema, the index definitions,
  the all-equal verdicts translation read (which set the ψ widths), the
  NULL verdict of every column (which chose the guard-free kernels the
  plan memoizes on first execution) and the statistics generation
  (:func:`planning_facts`), read before physical planning.  A lookup whose
  resolved versions carry the same facts is a hit, and any difference
  drops the entry (an *invalidation*) and re-plans.  A write's new version
  shares its segments, which keep the counts the NULL and all-equal
  verdicts come from, so checking them costs no scan of an old row.
* **The facts live on the version**, memoized in its ``_facts`` slot:
  a lookup compares one tuple, by identity first.  The in-place changes
  that can move a fact (index DDL, a statistics refresh) drop
  the memo (:func:`~repro.relational.index.forget_facts`), so the next
  lookup of each plan over the version re-checks; nothing scans the cache.

Keys identify the owning catalog by ``id()``.  That is sound precisely
because every entry holds a strong reference to it (its ``owner``): an id
can only be recycled after the object dies, and it cannot die while the
entry is alive.  Nothing else in a key is an
identity: a ``$n`` slot keys by its index, so a plan is shared by every
statement, session and thread whose query has the same structure, and
what differs between their executions (``$n`` values, operator counters,
``conf`` summaries) lives in each execution's frame
(:func:`~repro.relational.expressions.executing`), never on the cached
tree.

Every cache operation — lookup, store, invalidation, stats — runs under
one module lock, so N sessions executing cached plans concurrently never
see a torn cache; index DDL and statistics refreshes never take it.  The lock
is held for dict bookkeeping and the facts check of the one entry looked
up (one memo read per slot; the facts computation, a column scan at most,
the first time a version is asked), never during planning or execution.
A served request looks its plan up once, before admission: the record
it finds gives both the admission class and the plan the worker runs
(:func:`cached_plan`'s ``found``).  :func:`cached_cost_class` peeks at a
class without counting or touching the LRU order (a request that joins
an in-flight execution runs no plan);
:func:`plan_cache_stats` / :func:`reset_plan_cache` mirror the
expression compile cache's introspection hooks (tests and benchmarks use
them to prove second-run queries are planning-free).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..obs import gauge
from ..obs import span as obs_span
from .index import indexes_on
from .relation import Relation
from .statistics import table_stats

__all__ = [
    "LruHotCache",
    "PlanRecord",
    "plan_cache_stats",
    "reset_plan_cache",
    "cached_plan",
    "cache_lookup",
    "cache_store",
    "cached_cost_class",
    "publish_plan_cache_metrics",
    "cost_class_of",
    "mark_cached",
    "name_slots",
    "planning_facts",
    "planned_over",
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
    ``put`` returns what left the cache.
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

    def items(self) -> List[Tuple[Any, Any]]:
        """The cached ``(key, value)`` pairs, least recently used first."""
        with self._lock:
            return [(key, slot[0]) for key, slot in self._entries.items()]

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
    #: top-level ``Poss`` / ``Conf``); otherwise the
    #: ``(d_width, tid_names, value_names, canonical)`` column structure
    #: that wraps the result as a U-relation.
    wrap: Optional[Tuple]
    #: What the workload history keeps of the plan (fingerprint, plan key,
    #: relations; see ``repro.core.translate._workload_profile``), or ``None``.
    profile: Optional[dict]
    #: Admission cost class (see :data:`COST_CLASSES`, :func:`cost_class_of`).
    cost_class: str


class _Slot(NamedTuple):
    """What an entry knows of one partition its plan reads."""

    #: The ``(position, value)`` all-equal questions translation asked.
    probes: Tuple[Tuple[int, Any], ...]
    #: :func:`planning_facts` of the version the plan was built over.
    facts: Tuple


class _Entry(NamedTuple):
    record: PlanRecord
    #: label -> slot, for every partition the plan reads.
    slots: Dict[str, _Slot]
    #: The catalog the key names by ``id()``, held: its ``catalog()`` is
    #: what a lookup outside an execution validates against.
    owner: Any


#: One lock for all cache state.
_lock = threading.Lock()

#: Key -> entry.  Eviction at capacity is the LRU + hot-pin policy of
#: :class:`LruHotCache`, not wholesale clearing — a serving workload churns
#: ad-hoc shapes through the cache and must not lose its hot set.
_entries = LruHotCache(_PLAN_CACHE_LIMIT)

_hits = 0
_misses = 0
_invalidations = 0


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
def name_slots(plan: Any) -> Any:
    """Turn a physical plan's leaves into slots: each drops the relation
    version (and the index over it) it was planned over and keeps its
    label and the index's :class:`~repro.relational.index.IndexDef`, resolved per
    execution from the frame's catalog.  What the cache stores of a
    U-query plan: it pins no superseded version and serves every later one."""
    from .physical import IndexNestedLoopJoin, IndexScan, SeqScan

    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (SeqScan, IndexScan, IndexNestedLoopJoin)):
            node.relation = None
            if not isinstance(node, SeqScan):
                node.index = node.index.definition
        stack.extend(node.children)
    return plan


def planning_facts(relation: Relation, probes: Tuple[Tuple[int, Any], ...]) -> Tuple:
    """What a plan over one partition version was built on: its schema,
    the index definitions that build over it, the all-equal verdicts of
    ``probes`` (``(position, value)`` pairs), the NULL verdict of every
    column and its statistics generation.  Memoized on the version per
    ``probes``: the fill writes into the memo dict it read before the
    facts, so one racing a change that drops the memo writes into a dict
    no one reads any more."""
    memo = getattr(relation, "_facts", None)
    if memo is None:
        memo = relation._facts = {}
    facts = memo.get(probes)
    if facts is None:
        facts = memo[probes] = _compute_facts(relation, probes)
    return facts


def _compute_facts(relation: Relation, probes: Sequence[Tuple[int, Any]]) -> Tuple:
    """:func:`planning_facts` read from the version: the verdicts come from
    counts its segments keep, so this costs no scan in the steady state.
    The definitions are the ones :func:`indexes_on` finds built: a listed
    one that cannot build over this version (sorted keys that do not
    compare) is left out, so a plan probing it is not served here.  A
    write's version holds its parent's handles already, so this builds
    nothing in the steady state either."""
    return (
        relation.schema,
        frozenset(index.definition for index in indexes_on(relation)),
        tuple(relation.column_all_equal(position, value) for position, value in probes),
        relation.null_columns(),
        table_stats(relation).generation,
    )


def planned_over(
    versions: Mapping[str, Relation], probes: Mapping[str, Sequence[Tuple[int, Any]]]
) -> Dict[str, _Slot]:
    """The slots of a plan about to be physically planned over
    ``versions``: per label its ``probes`` and the version's facts, read
    now (a change during planning is then one that the next lookup sees)."""
    slots = {}
    for label, asked in probes.items():
        asked = tuple(asked)
        slots[label] = _Slot(asked, planning_facts(versions[label], asked))
    return slots


def _holds(entry: _Entry, versions: Optional[Mapping[str, Relation]]) -> bool:
    """Whether every slot's version in ``versions`` (``None``: the owner's
    current catalog) carries the facts the entry's plan was built on."""
    slots = entry.slots
    if slots and versions is None:
        versions = entry.owner.catalog().versions
    for label, slot in slots.items():
        relation = versions.get(label)
        if relation is None:
            return False
        facts = planning_facts(relation, slot.probes)
        if facts is not slot.facts and facts != slot.facts:
            return False
    return True


def cache_lookup(
    key: Optional[Tuple], versions: Optional[Mapping[str, Relation]] = None
) -> Optional[PlanRecord]:
    """The cached :class:`PlanRecord` for ``key``, or ``None`` (counted as
    a miss).

    A ``None`` key (an uncacheable query shape) always misses.  The entry
    is checked against ``versions``, the catalog the execution will read
    (default: the owner's current catalog): one whose facts no longer
    hold is dropped, counted as an invalidation, and misses.  A hit
    refreshes the entry's LRU position and, past :data:`_HOT_PIN_HITS`
    hits, pins it into the hot set.
    """
    global _hits, _misses, _invalidations
    with _lock:
        entry = None if key is None else _entries.get(key)
        if entry is not None and not _holds(entry, versions):
            _entries.pop(key)
            _invalidations += 1
            entry = None
        if entry is None:
            _misses += 1
            return None
        _hits += 1
        return entry.record


def cache_store(
    key: Optional[Tuple], record: PlanRecord, slots: Dict[str, _Slot], owner: Any
) -> None:
    """Insert a plan's record under ``key`` (``None`` key: not cached).

    ``slots`` are the partitions the plan reads (:func:`planned_over`);
    ``owner`` is the catalog the key names by ``id()``, kept alive with
    the entry.
    """
    if key is None:
        return
    with _lock:
        _entries.put(key, _Entry(record, slots, owner))


def cached_plan(
    key: Optional[Tuple],
    versions: Mapping[str, Relation],
    build: Callable[[], Tuple],
    found: Optional[Tuple[Optional[PlanRecord]]] = None,
) -> Tuple[PlanRecord, bool]:
    """The record for ``key`` and whether the cache served it: the one
    ``plan`` span -> lookup -> build -> store sequence, called by the
    U-relation translation (``repro.core.translate._cached_physical``).

    The entry is checked against ``versions``, the catalog the execution
    will read.  ``found`` is ``(record,)`` when the request already made
    that lookup (the server does, to admit it by the record's class):
    then ``record``, ``None`` for a miss, stands for it.  ``build()`` runs
    only after a miss, outside the cache lock, and returns ``(record,
    slots, owner)`` as :func:`cache_store` takes them.  Two callers that
    miss on one key at once both build; the records are interchangeable
    and the last store wins.
    """
    span = obs_span("plan")
    record = cache_lookup(key, versions) if found is None else found[0]
    span.set(cached=record is not None)
    if record is not None:
        span.finish()
        return record, True
    with span:  # planning runs under it
        record, slots, owner = build()
        cache_store(key, record, slots, owner)
    return record, False


def cached_cost_class(key: Optional[Tuple]) -> Optional[str]:
    """The cost class of a cached entry whose facts hold, or ``None`` when
    the request will plan.

    The admission layer's peek: no stats are counted and the LRU order is
    untouched, so classifying a request never perturbs the cache.
    """
    with _lock:
        entry = None if key is None else _entries.peek(key)
        return None if entry is None or not _holds(entry, None) else entry.record.cost_class


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
    stats = plan_cache_stats()
    with _lock:
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

    The planning facts memoized on relation versions survive: they
    describe the versions, not cached plans.
    """
    global _entries, _hits, _misses, _invalidations
    with _lock:
        _entries = LruHotCache(_PLAN_CACHE_LIMIT)  # fresh pin/eviction counters
        _hits = 0
        _misses = 0
        _invalidations = 0


def mark_cached(text: str) -> str:
    """Append the ``(cached)`` marker to an EXPLAIN text's top line."""
    first, _, rest = text.partition("\n")
    return first + "  (cached)" + ("\n" + rest if rest else "")


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
        if isinstance(node, (HashJoin, IndexNestedLoopJoin, NestedLoopJoin, SemiJoinOp)):
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
