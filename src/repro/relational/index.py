"""Secondary indexes over relations.

The paper's performance argument (Figures 12-13) rests on U-relations being
*plain relations* the host DBMS can index: the tid-equijoins that reassemble
vertical partitions, and the selective scans of the experiment queries, run
as index accesses in PostgreSQL.  This module gives the substrate the same
capability:

* :class:`HashIndex`   — equality lookups (dict of key -> row positions),
* :class:`SortedIndex` — binary-search point and range lookups over the
  rows' positions sorted by key (the btree stand-in),
* :func:`probe_table`  — the one shape an equi-join probes, key -> row or
  [rows]: an index's per-segment probe table, built on the first join
  probe, and a hash join's build side.

An index's structure lives on the segments of the relation it covers: each
:class:`~repro.relational.relation.Segment` builds, once, the hash table or
sorted key array of every index definition over its own rows
(:meth:`~repro.relational.relation.Segment.memo`), and every relation
version holding the segment shares it.  An :class:`Index` is a handle over
one version: its definition plus that version's segments and dead
positions.  A lookup reads each segment's structure and drops the dead
rows, so an append indexes the new segment alone, a delete indexes
nothing, and a compaction's new base segment takes the old base's
structures and probe tables with edits for the slots it refilled or
vacated (``_edit``; the rows it places are indexed again, no others).

Indexes *attach* to the :class:`~repro.relational.relation.Relation` they
cover (a private slot on the relation object), and that slot is the only
record of them: :func:`ensure_index` creates one, :func:`defer_index`
records a definition built on first planner access, and the U-relational
catalog's index DDL works on the live partition relation.  The planner
discovers access paths through :func:`indexes_on`, so any plan that scans a
relation sees them.  Because relations are immutable values, attachment is
safe: an index can never go stale while its relation object is alive, and
a write's new version takes over the definitions of the one it replaces
(:func:`reattach_indexes`).

NULL semantics match the executor's comparisons: rows whose key contains
``None`` are excluded from every index (a NULL never compares equal, so an
equality or range lookup can never return it).
"""

from __future__ import annotations

import copy
import heapq
import threading
import weakref
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .relation import EDIT_RULES, Refill, Relation, Segment

__all__ = [
    "Index",
    "HashIndex",
    "SortedIndex",
    "build_index",
    "probe_table",
    "restricted_probe_table",
    "attach_index",
    "detach_index",
    "defer_index",
    "indexes_on",
    "built_indexes_on",
    "attached_index_defs",
    "drop_index_def",
    "default_index_name",
    "ensure_index",
    "reattach_indexes",
    "forget_facts",
    "IndexDef",
    "index_named",
]

Row = Tuple[Any, ...]

#: Index kinds accepted by :func:`build_index` / ``CREATE INDEX ... USING``.
INDEX_KINDS = ("hash", "sorted")


def _key_getter(positions: Tuple[int, ...]) -> Callable[[Row], Any]:
    """A row's index key: a scalar for one column, else a tuple; a key
    containing ``None`` is reported as ``None``."""
    if len(positions) == 1:
        return itemgetter(positions[0])
    getter = itemgetter(*positions)

    def key_of(row: Row) -> Any:
        key = getter(row)
        return None if None in key else key

    return key_of


def _structure(segment: Segment, kind: str, positions: Tuple[int, ...]) -> Any:
    """The ``kind`` index structure over one segment's rows (memoized on it)."""
    return _KIND_CLASSES[kind]._build(segment.rows, positions)


def _segment_probe_table(segment: Segment, kind: str, positions: Tuple[int, ...]) -> Dict[Any, Any]:
    """The :func:`probe_table` over one segment's rows (memoized on it)."""
    structure = segment.memo(_structure, kind, positions)
    return _KIND_CLASSES[kind]._probe_table(segment.rows, structure)


def _edited_structure(structure: Any, refill: Refill, kind: str, positions: Tuple[int, ...]) -> Any:
    return _KIND_CLASSES[kind]._edit(structure, refill.removed, refill.placed, positions)


def _edited_probe_table(
    table: Dict[Any, Any], refill: Refill, kind: str, positions: Tuple[int, ...]
) -> Dict[Any, Any]:
    """The old base's probe table, copied, with every key a touched slot
    held or holds looked up again in the new base's structure."""
    structure = refill.carry(_structure, kind, positions)
    hits_of = _KIND_CLASSES[kind]._hits
    rows = refill.new.rows
    table = table.copy()
    touched = set(map(_key_getter(positions), chain(refill.removed.values(), refill.placed.values())))
    touched.discard(None)
    for key in touched:
        hits = hits_of(structure, key)
        if not hits:
            table.pop(key, None)
        else:
            table[key] = rows[hits[0]] if len(hits) == 1 else list(map(rows.__getitem__, hits))
    return table


def _spliced(old: List[Any], cuts: List[tuple], value: Callable[[Any, int], Any]) -> List[Any]:
    """``old`` with each ``(at, 1)`` cut's entry dropped and each ``(at, 0,
    key, slot)`` cut's ``value(key, slot)`` inserted before ``old[at]``
    (``cuts`` ascending); the runs between cuts are copied as slices."""
    out: List[Any] = []
    start = 0
    for at, drop, *entry in cuts:
        out += old[start:at]
        if drop:
            start = at + 1
        else:
            start = at
            out.append(value(*entry))
    out += old[start:]
    return out


def _live_probe(
    hits_of: Callable,
    rows: Sequence[Row],
    structure: Any,
    dead: frozenset,
    kept: Optional[bytearray],
    key: Any,
) -> Any:
    """One segment's join probe when it has dead rows (the :func:`probe_table`
    shape, dead rows dropped, and with a ``kept`` mask the rows it leaves
    out too).  A function of the segment alone: a probe holding its index
    handle would close a cycle through the handle's cached probe."""
    hits = [p for p in hits_of(structure, key) if p not in dead]
    if kept is not None:
        hits = [p for p in hits if kept[p]]
    if not hits:
        return None
    return rows[hits[0]] if len(hits) == 1 else list(map(rows.__getitem__, hits))


class Index:
    """Base class: an index definition over one relation version's column
    list, reading the structures its segments keep."""

    kind = "index"

    def __init__(self, relation: Relation, columns: Sequence[str], name: Optional[str] = None):
        self._relation = weakref.ref(relation)
        positions = tuple(relation.schema.resolve(c) for c in columns)
        if len(set(positions)) != len(positions):
            raise ValueError(f"duplicate columns in index definition: {list(columns)}")
        self.positions: Tuple[int, ...] = positions
        #: Canonical column names (as they appear in the relation schema).
        self.columns: Tuple[str, ...] = tuple(
            relation.schema.names[p] for p in positions
        )
        self.name = name or default_index_name(self.columns)
        self.key_of = _key_getter(positions)
        self._runs: Optional[Tuple[Tuple[Segment, Any, frozenset], ...]] = None
        self._probe: Optional[Callable[[Any], Any]] = None
        for _, structure, _ in self.runs():  # every segment's, built now
            self._admit(structure)

    def runs(self) -> Tuple[Tuple[Segment, Any, frozenset], ...]:
        """Per segment of the version: the segment, its structure and its
        dead positions; gathered on first use (threads racing on it
        gather equal tuples)."""
        runs = self._runs
        if runs is None:
            key = (_structure, self.kind, self.positions)
            runs = self._runs = tuple(
                (segment, segment._memo.get(key) or segment.memo(*key), dead)  # memo inline
                for segment, dead in self.relation._runs
            )
        return runs

    def successor(self, relation: Relation, added: Sequence[Segment]) -> "Index":
        """This index over ``relation``, a write's successor of its own
        relation that adds the segments ``added``: only those are indexed
        now, and the shared ones are read on first use.  Raises
        ``TypeError`` when an added segment's keys cannot join the index."""
        handle = copy.copy(self)
        handle._relation = weakref.ref(relation)
        handle._runs = handle._probe = None
        for segment in added:
            handle._admit(segment.memo(_structure, self.kind, self.positions))
        return handle

    def _admit(self, structure: Any) -> None:
        """Check that a segment's structure can join this index."""

    @property
    def relation(self) -> Optional[Relation]:
        """The covered relation, or None once nothing else holds it.

        Held weakly: a relation owns its indexes (``_indexes``), and a
        strong reference back would close a cycle that keeps every
        superseded relation version of the write path alive until the
        cycle collector's next full pass.  Whoever needs the relation
        while holding an index (a relational plan's ``IndexScan``, an
        execution's frame) holds it too.
        """
        return self._relation()

    # ------------------------------------------------------------------
    # per-segment structure (class-level: the structure is the segment's)
    # ------------------------------------------------------------------
    @staticmethod
    def _build(rows: Sequence[Row], positions: Tuple[int, ...]) -> Any:
        """The structure over one segment's ``rows``."""
        raise NotImplementedError

    @staticmethod
    def _edit(
        structure: Any, removed: Dict[int, Row], placed: Dict[int, Row], positions: Tuple[int, ...]
    ) -> Any:
        """The structure over a compaction's new base, from the old base's
        ``structure`` and the :class:`~repro.relational.relation.Refill`'s
        ``removed`` / ``placed`` slots: a copy, never a change."""
        raise NotImplementedError

    @staticmethod
    def _probe_table(rows: Sequence[Row], structure: Any) -> Dict[Any, Any]:
        """The :func:`probe_table` of one segment, from its structure."""
        raise NotImplementedError

    @staticmethod
    def _hits(structure: Any, key: Any) -> Sequence[int]:
        """Ascending positions, in the segment, of the rows keyed ``key``."""
        raise NotImplementedError

    @staticmethod
    def _size(structure: Any) -> int:
        """How many of the segment's rows the structure indexes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def lookup(self, key: Any) -> Sequence[Row]:
        """All live rows whose key equals ``key`` (in relation order)."""
        if key is None:
            return ()
        out: List[Row] = []
        for segment, structure, dead in self.runs():
            hits = self._hits(structure, key)
            if hits:
                if dead:
                    hits = [p for p in hits if p not in dead]
                out.extend(map(segment.rows.__getitem__, hits))
        return out

    def matches(self, keys: Iterable[Any]) -> List[Tuple[int, Row]]:
        """``(global ordinal, row)`` of every live row whose key is one of
        ``keys``, ascending: what a write needs to delete or rewrite them."""
        keys = [key for key in keys if key is not None]
        out: List[Tuple[int, Row]] = []
        start = 0
        for segment, structure, dead in self.runs():
            rows = segment.rows
            for key in keys:
                for p in self._hits(structure, key):
                    if p not in dead:
                        out.append((start + p, rows[p]))
            start += len(rows)
        out.sort(key=itemgetter(0))
        return out

    def probe_lookup(
        self, restricted: Optional[Callable[[Segment], Tuple[Dict[Any, Any], bytearray]]] = None
    ) -> Callable[[Any], Any]:
        """The join probe over this version: key -> row, [rows] in
        relation order, or ``None`` (the :func:`probe_table` shape).

        A one-segment version with nothing deleted probes its segment's
        probe table directly; otherwise each clean segment's table and
        each other segment's structure are probed in turn and the dead
        rows dropped - nothing is copied per probe.  A segment's table is
        built on its first join probe and kept on the segment: threads
        racing on it each build an equal table, and one of them stays.
        The probe is made once per version (threads racing on it make
        equal ones).

        With ``restricted``, the probe over the rows a caller keeps of each
        segment, made per call: ``restricted(segment)`` is the segment's
        :func:`restricted_probe_table`, which the caller keeps, and it
        stands in for the segment's own table and structure.
        """
        if restricted is not None:
            return self._prober(restricted)
        probe = self._probe
        if probe is None:
            probe = self._probe = self._prober()
        return probe

    def _prober(self, restricted: Optional[Callable] = None) -> Callable[[Any], Any]:
        runs = self.runs()
        key = (_segment_probe_table, self.kind, self.positions)
        gets = []
        for segment, structure, dead in runs:
            if restricted is not None:
                table, kept = restricted(segment)
            else:
                kept = None
                table = None if dead else segment._memo.get(key) or segment.memo(*key)  # memo inline
            gets.append(
                partial(_live_probe, self._hits, segment.rows, structure, dead, kept)
                if dead
                else table.get
            )
        if len(gets) == 1 and not runs[0][2]:
            return gets[0]

        def lookup(key: Any) -> Any:
            found: List[Row] = []
            for get in gets:
                held = get(key)
                if held is None:
                    continue
                if type(held) is list:
                    found.extend(held)
                else:
                    found.append(held)
            if not found:
                return None
            return found[0] if len(found) == 1 else found

        return lookup

    def __len__(self) -> int:
        """Number of indexed live rows (NULL-keyed rows are not indexed)."""
        key_of = self.key_of
        return sum(
            self._size(structure)
            - sum(key_of(segment.rows[p]) is not None for p in dead)
            for segment, structure, dead in self.runs()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, columns={list(self.columns)}, {len(self)} entries)"


class HashIndex(Index):
    """Equality-lookup index: per segment, a dict from key to the position
    of its row, or the list of its rows' positions."""

    kind = "hash"

    @staticmethod
    def _build(rows: Sequence[Row], positions: Tuple[int, ...]) -> Tuple[Dict[Any, Any], int]:
        keys = list(map(_key_getter(positions), rows))
        table = probe_table(
            (key, position) for position, key in enumerate(keys) if key is not None
        )
        return table, len(keys) - keys.count(None)

    @staticmethod
    def _edit(
        structure: Any, removed: Dict[int, Row], placed: Dict[int, Row], positions: Tuple[int, ...]
    ) -> Tuple[Dict[Any, Any], int]:
        key_of = _key_getter(positions)
        gone: Dict[Any, set] = {}
        for slot, row in removed.items():
            key = key_of(row)
            if key is not None:
                gone.setdefault(key, set()).add(slot)
        came: Dict[Any, List[int]] = {}
        for slot, row in placed.items():
            key = key_of(row)
            if key is not None:
                came.setdefault(key, []).append(slot)
        table, size = structure
        table = table.copy()
        for key in gone.keys() | came.keys():
            held = table.get(key)
            slots = () if held is None else held if type(held) is list else (held,)
            drop = gone.get(key)
            if drop:
                slots = [slot for slot in slots if slot not in drop]
            if key in came:
                slots = sorted([*slots, *came[key]])
            if not slots:
                del table[key]
            else:  # a new list: the old one may be shared
                table[key] = slots[0] if len(slots) == 1 else slots
        size += sum(map(len, came.values())) - sum(map(len, gone.values()))
        return table, size

    @staticmethod
    def _probe_table(rows: Sequence[Row], structure: Any) -> Dict[Any, Any]:
        return {
            key: rows[held] if type(held) is int else list(map(rows.__getitem__, held))
            for key, held in structure[0].items()
        }

    @staticmethod
    def _hits(structure: Any, key: Any) -> Sequence[int]:
        held = structure[0].get(key)
        if held is None:
            return ()
        return held if type(held) is list else (held,)

    @staticmethod
    def _size(structure: Any) -> int:
        return structure[1]


class SortedIndex(Index):
    """Binary-search index: row positions sorted by key, point + range lookups.

    Keys must be mutually comparable (homogeneous column types); building
    over an unsortable column - within a segment, or across the segments
    of a version - raises ``TypeError``: use a :class:`HashIndex` there
    instead.  Range lookups bound the *first* index column; multi-column
    sorted indexes still support point lookups and ordered scans.
    """

    kind = "sorted"

    #: The least and greatest key over the segments, ``None`` while none.
    _span: Optional[Tuple[Any, Any]] = None

    def _admit(self, structure: Any) -> None:
        # each segment's keys sort; across segments their extremes must too
        keys = structure[0]
        if keys:
            span = self._span
            low, high = keys[0], keys[-1]
            self._span = (low, high) if span is None else (min(span[0], low), max(span[1], high))

    @staticmethod
    def _build(rows: Sequence[Row], positions: Tuple[int, ...]) -> Tuple[List[Any], List[int], List[Any]]:
        """``(keys, order, first)``: the non-NULL keys ascending, the row
        position of each (ascending within a run of equal keys: relation
        order), and the first key column alone for range bisection."""
        keys = list(map(_key_getter(positions), rows))
        order = sorted(
            (p for p, key in enumerate(keys) if key is not None), key=keys.__getitem__
        )
        keys = list(map(keys.__getitem__, order))
        first = keys if len(positions) == 1 else [key[0] for key in keys]
        return keys, order, first

    @staticmethod
    def _edit(
        structure: Any, removed: Dict[int, Row], placed: Dict[int, Row], positions: Tuple[int, ...]
    ) -> Tuple[List[Any], List[int], List[Any]]:
        """Spliced at bisected points: a removed slot's entry is dropped
        and a placed slot's goes before the first entry above it (key,
        then slot).  Raises ``TypeError`` when a key does not compare."""
        keys, order, first = structure
        key_of = _key_getter(positions)
        cuts: List[tuple] = []  # (at, 1): drop entry at; (at, 0, key, slot): insert before it
        for drop, rows in ((1, removed), (0, placed)):
            for slot, row in rows.items():
                key = key_of(row)
                if key is not None:
                    lo = bisect_left(keys, key)
                    at = bisect_left(order, slot, lo, bisect_right(keys, key, lo))
                    cuts.append((at, 1) if drop else (at, 0, key, slot))
        cuts.sort()
        keys = _spliced(keys, cuts, lambda key, slot: key)
        order = _spliced(order, cuts, lambda key, slot: slot)
        if len(positions) == 1:
            return keys, order, keys
        return keys, order, _spliced(first, cuts, lambda key, slot: key[0])

    @staticmethod
    def _probe_table(rows: Sequence[Row], structure: Any) -> Dict[Any, Any]:
        keys, order, _ = structure
        return probe_table(zip(keys, map(rows.__getitem__, order)))

    @staticmethod
    def _hits(structure: Any, key: Any) -> Sequence[int]:
        keys, order, _ = structure
        try:
            lo = bisect_left(keys, key)
            hi = bisect_right(keys, key, lo)
        except TypeError:
            # a type-mismatched key can never compare equal to any stored
            # key: equality never raises in the executor, so neither do we
            return ()
        return order[lo:hi]

    @staticmethod
    def _size(structure: Any) -> int:
        return len(structure[0])

    def range_runs(
        self,
        lower: Any = None,
        upper: Any = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> Iterator[Tuple[Segment, List[int]]]:
        """Per segment, the ascending positions of the live rows whose
        first key column lies within the bounds (``None``: open).  Relation
        order, not key order, keeps downstream probes local."""
        for segment, (_, order, first), dead in self.runs():
            lo = 0
            hi = len(first)
            if lower is not None:
                lo = bisect_left(first, lower) if lower_inclusive else bisect_right(first, lower)
            if upper is not None:
                hi = bisect_right(first, upper) if upper_inclusive else bisect_left(first, upper)
            if hi <= lo:
                continue
            positions = sorted(order[lo:hi])
            if dead:
                positions = [p for p in positions if p not in dead]
            if positions:
                yield segment, positions

    def range(
        self,
        lower: Any = None,
        upper: Any = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> List[Row]:
        """The rows of :meth:`range_runs`, in relation order."""
        out: List[Row] = []
        for segment, positions in self.range_runs(
            lower, upper, lower_inclusive, upper_inclusive
        ):
            out.extend(map(segment.rows.__getitem__, positions))
        return out

    def ordered(self) -> List[Row]:
        """All indexed live rows in ascending key order (relation order
        within equal keys)."""
        runs = [
            [(keys[i], segment.rows[p]) for i, p in enumerate(order) if p not in dead]
            for segment, (keys, order, _), dead in self.runs()
        ]
        if len(runs) == 1:
            return [row for _, row in runs[0]]
        return [row for _, row in heapq.merge(*runs, key=itemgetter(0))]


_KIND_CLASSES = {"hash": HashIndex, "sorted": SortedIndex}
EDIT_RULES[_structure] = _edited_structure
EDIT_RULES[_segment_probe_table] = _edited_probe_table


def probe_table(entries: Iterable[Tuple[Any, Row]]) -> Dict[Any, Any]:
    """The equi-join probe table over ``(key, row)`` entries: key -> row,
    or the list of its rows in entry order when several share the key.

    Most keys of a tuple-id column hold one row, and a bare row spares the
    probe loop a bucket iterator.  The caller leaves NULL keys out.
    """
    table: Dict[Any, Any] = {}
    get = table.get
    for key, row in entries:
        held = get(key)
        if held is None:
            table[key] = row
        elif type(held) is list:
            held.append(row)
        else:
            table[key] = [held, row]
    return table


def restricted_probe_table(
    segment: Segment, positions: Tuple[int, ...], kept: Sequence[int]
) -> Tuple[Dict[Any, Any], bytearray]:
    """The :func:`probe_table` of ``segment``'s rows at the ascending
    positions ``kept``, keyed on the columns at ``positions``, and the
    mask of ``kept`` (1 at a kept position): what a join probes when only
    those rows can match (:meth:`Index.probe_lookup`)."""
    rows = segment.rows
    mask = bytearray(len(rows))
    for position in kept:
        mask[position] = 1
    picked = list(map(rows.__getitem__, kept))
    keys = map(_key_getter(positions), picked)
    return probe_table(entry for entry in zip(keys, picked) if entry[0] is not None), mask


def build_index(
    relation: Relation, columns: Sequence[str], kind: str = "hash", name: Optional[str] = None
) -> Index:
    """Construct (but do not attach) an index of the given kind."""
    try:
        cls = _KIND_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown index kind {kind!r} (use one of {list(INDEX_KINDS)})") from None
    return cls(relation, columns, name=name)


# ----------------------------------------------------------------------
# attachment: indexes live on the relation object they cover
# ----------------------------------------------------------------------
#: Serializes attach/detach and deferred-build materialization.  One
#: process-wide RLock (builds can re-enter through ``ensure_index`` →
#: ``indexes_on``): concurrent planners discovering access paths while a
#: DDL thread creates/drops indexes must never observe a half-attached
#: list, and a deferred auto-index must be built exactly once even when N
#: sessions hit the first planner access simultaneously.
_ATTACH_LOCK = threading.RLock()


def forget_facts(relation: Relation) -> None:
    """Drop the planning facts memoized on ``relation``
    (:func:`repro.relational.plancache.planning_facts`): called *after*
    every change to its index definitions (under :data:`_ATTACH_LOCK`) or
    its statistics, so a fill that read the old state wrote it into a
    dict no lookup reads any more."""
    relation._facts = None


def attach_index(relation: Relation, index: Index) -> None:
    """Attach an index to its relation so planners can discover it.

    Attaching changes the access paths a fresh plan over the relation
    would choose (every index build — ``CREATE INDEX``, registry rebuilds,
    and the deferred auto-index builds that materialize on first planner
    access — funnels through here), so the relation's planning facts are
    dropped: the next lookup of a cached plan over it re-checks them, and
    re-plans if its definition set differs.
    """
    if index.relation is not relation:
        raise ValueError("index was built over a different relation object")
    with _ATTACH_LOCK:
        existing = getattr(relation, "_indexes", None)
        if existing is None:
            relation._indexes = [index]
        elif index not in existing:
            existing.append(index)
        else:
            return  # already attached: no access-path change
        pending = getattr(relation, "_pending_indexes", None)
        if pending:  # the built index is its pending definition, if it had one
            relation._pending_indexes = [
                d for d in pending if _definition_name(d) != index.name
            ]
        forget_facts(relation)


def detach_index(relation: Relation, index: Index) -> None:
    """Remove an attached index (no-op if it is not attached).

    Like :func:`attach_index`, a successful detach drops the relation's
    planning facts, so a cached plan probing the index re-plans at its
    next lookup.
    """
    with _ATTACH_LOCK:
        existing = getattr(relation, "_indexes", None)
        if existing and index in existing:
            existing.remove(index)
            forget_facts(relation)


def default_index_name(columns: Sequence[str]) -> str:
    """The name an index over ``columns`` gets when none is given."""
    return f"idx_{'_'.join(c.replace('.', '_') for c in columns)}"


def _definition_name(definition: Tuple[Tuple[str, ...], str, Optional[str]]) -> str:
    """The name a pending ``(columns, kind, name)`` definition will bear."""
    return definition[2] or default_index_name(definition[0])


def drop_index_def(relation: Relation, name: str) -> bool:
    """Drop the definition called ``name``; False if there is none.

    A built index is detached; a still-pending definition is forgotten
    unbuilt.  Either way the relation's planning facts are dropped, so a
    cached plan over it re-plans at its next lookup.
    """
    with _ATTACH_LOCK:
        for index in getattr(relation, "_indexes", None) or ():
            if index.name == name:
                detach_index(relation, index)
                return True
        pending = getattr(relation, "_pending_indexes", None) or ()
        kept = [d for d in pending if _definition_name(d) != name]
        if len(kept) == len(pending):
            return False
        relation._pending_indexes = kept
        forget_facts(relation)
        return True


def defer_index(
    relation: Relation,
    columns: Sequence[str],
    kind: str = "hash",
    name: Optional[str] = None,
) -> None:
    """Record an index *definition* to be built on first planner access.

    Write-only pipelines (data conversion, save) never trigger the build;
    the first :func:`indexes_on` call — which is how planners discover
    access paths — materializes every pending definition.  A definition
    whose name is already attached or pending is skipped (idempotent).
    Sorted definitions over unsortable columns are skipped silently at
    materialization time, matching the eager auto-indexing policy.
    """
    effective = name or default_index_name(columns)
    with _ATTACH_LOCK:
        for index in getattr(relation, "_indexes", None) or ():
            if index.name == effective:
                return
        pending = getattr(relation, "_pending_indexes", None)
        if pending is None:
            pending = []
            relation._pending_indexes = pending
        if any(_definition_name(d) == effective for d in pending):
            return
        pending.append((tuple(columns), kind, name))
        forget_facts(relation)


def _materialize_pending(relation: Relation) -> None:
    from .schema import SchemaError

    pending = getattr(relation, "_pending_indexes", None)
    if not pending:
        return
    with _ATTACH_LOCK:
        # re-read under the lock: another planner thread may have built
        # (and detached) the pending list while we waited
        pending = getattr(relation, "_pending_indexes", None)
        if not pending:
            return
        # detach the list first: what is queued is what this call builds
        relation._pending_indexes = []
        while pending:
            columns, kind, name = pending.pop(0)
            try:
                ensure_index(relation, list(columns), kind=kind, name=name)
            except (TypeError, SchemaError):
                # unsortable column / stale definition (e.g. schema drift
                # in a persisted directory): this index stays unavailable,
                # the relation stays queryable via sequential scans
                pass
            except BaseException:
                # an unexpected error loses only the definition that raised
                # — re-attach the ones still queued behind it
                relation._pending_indexes = pending
                forget_facts(relation)
                raise
        # attaching dropped the facts; a definition that built nothing did not
        forget_facts(relation)


def indexes_on(relation: Relation) -> Tuple[Index, ...]:
    """All indexes attached to a relation (hash indexes first).

    This is the planner's discovery hook: any index definitions deferred
    by :func:`defer_index` are built here, on first access (exactly once,
    even under concurrent planning — see :data:`_ATTACH_LOCK`).
    """
    _materialize_pending(relation)
    with _ATTACH_LOCK:
        existing = getattr(relation, "_indexes", None)
        if not existing:
            return ()
        return tuple(sorted(existing, key=lambda i: i.kind != "hash"))


def built_indexes_on(relation: Relation) -> Tuple[Index, ...]:
    """Already-built attached indexes only — never triggers deferred builds.

    For callers that inspect what a relation carries (the derived-state
    tests read built indexes through it) without forcing the lazy
    auto-index builds that :func:`defer_index` postponed.
    """
    with _ATTACH_LOCK:
        existing = getattr(relation, "_indexes", None)
        if not existing:
            return ()
        return tuple(existing)


def attached_index_defs(relation: Relation) -> List[Tuple[Tuple[str, ...], str, str]]:
    """(columns, kind, name) of built *and* pending indexes, without building.

    Persistence uses this so saving a database with deferred auto-indexes
    records their definitions without paying the builds.
    """
    defs: List[Tuple[Tuple[str, ...], str, str]] = []
    for index in getattr(relation, "_indexes", None) or ():
        defs.append((index.columns, index.kind, index.name))
    for definition in getattr(relation, "_pending_indexes", None) or ():
        defs.append((tuple(definition[0]), definition[1], _definition_name(definition)))
    return defs


class IndexDef(NamedTuple):
    """An index as a cached plan names it: found again on any version of
    its relation by :func:`index_named`, holding none of its rows."""

    name: str
    columns: Tuple[str, ...]
    kind: str
    positions: Tuple[int, ...]

    @classmethod
    def of(cls, index: Index) -> "IndexDef":
        return cls(index.name, index.columns, index.kind, index.positions)


def _defines(definition: IndexDef, index: Index) -> bool:
    return (
        index.name == definition.name
        and index.kind == definition.kind
        and index.positions == definition.positions
    )


def index_named(relation: Relation, definition: IndexDef) -> Index:
    """The index ``definition`` names on ``relation``: the attached one,
    built now if still pending, or — dropped since the plan naming it was
    last validated — a private, unattached build of the same definition."""
    for index in getattr(relation, "_indexes", None) or ():
        if _defines(definition, index):
            return index
    for index in indexes_on(relation):  # a pending definition builds here
        if _defines(definition, index):
            return index
    return build_index(relation, definition.columns, kind=definition.kind, name=definition.name)


def ensure_index(
    relation: Relation, columns: Sequence[str], kind: str = "hash", name: Optional[str] = None
) -> Index:
    """Reuse an equivalent built index or build-and-attach this one.

    An equivalent index is only reused when the caller did not ask for a
    specific ``name`` (or asked for the one it already has) — EXPLAIN
    attributes scans by index name, so an explicitly-named creation must
    yield an index that actually bears that name.  Nothing else is built:
    the relation's other pending definitions stay pending.  Lookup and
    attach are one step under the attach lock, so a planner materializing
    a pending definition of this name cannot attach a second index of it.
    """
    positions = tuple(relation.schema.resolve(c) for c in columns)
    with _ATTACH_LOCK:
        for index in getattr(relation, "_indexes", None) or ():
            if (
                index.positions == positions
                and index.kind == kind
                and (name is None or index.name == name)
            ):
                return index
        index = build_index(relation, columns, kind=kind, name=name)
        attach_index(relation, index)
        return index


def reattach_indexes(old: Relation, new: Relation) -> None:
    """Give ``new``, a write's successor of ``old``, ``old``'s index
    definitions: a handle over ``new`` for every built index (its
    segments' structures are shared, so only a new segment is indexed)
    and every pending definition still pending.  A sorted index whose keys
    no longer compare across the segments (``TypeError``) becomes pending,
    and materializing it then leaves it unavailable, like any unsortable
    definition.

    ``new`` is a fresh version with no planning facts memoized yet: the
    definitions it gets are the ones a cached plan over ``old`` was built
    on, so the first lookup over ``new`` finds them unchanged and that
    plan runs over it.
    """
    with _ATTACH_LOCK:
        built = list(getattr(old, "_indexes", None) or ())
        pending = list(getattr(old, "_pending_indexes", None) or ())
    # an append adds its segment at the end, a delete adds none, and a
    # compaction replaces them all with a new base
    kept = len(old._runs) if new._runs[0][0] is old._runs[0][0] else 0
    added = [segment for segment, _ in new._runs[kept:]]
    handles: List[Index] = []
    for index in built:
        try:
            handles.append(index.successor(new, added))
        except TypeError:
            pending.append((index.columns, index.kind, index.name))
    if handles:
        new._indexes = handles
    if pending:
        new._pending_indexes = pending
