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

An index is one :class:`IndexDef` (name, columns, kind, positions), and
the tuple of them a :class:`~repro.relational.relation.Relation` version
lists (:func:`index_defs_on`) is its only record: every write's successor
takes the same tuple, and the U-relational catalog's policy, index DDL,
persistence and a transaction's ``COMMIT`` read and replace it.  The
planner discovers access paths through :func:`indexes_on`, whose first call
on a version builds a handle for every definition and memoizes it there;
a definition that cannot build over that version (sorted keys that do not
compare) gets ``None`` and stays listed, to build again on a later version.
A write's successor takes a handle for each one its parent had
(:func:`carry_handles`), so only its added segments are indexed.

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
from .schema import SchemaError

__all__ = [
    "Index",
    "HashIndex",
    "SortedIndex",
    "IndexDef",
    "build_index",
    "index_def",
    "probe_table",
    "restricted_probe_table",
    "index_defs_on",
    "set_index_defs",
    "drop_index_def",
    "ensure_index",
    "indexes_on",
    "built_indexes_on",
    "index_named",
    "carry_handles",
    "default_index_name",
    "forget_facts",
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
    """Base class: an :class:`IndexDef`'s handle over one relation
    version, reading the structures its segments keep."""

    kind = "index"

    def __init__(self, relation: Relation, columns: Sequence[str], name: Optional[str] = None):
        self._relation = weakref.ref(relation)
        self.definition = index_def(relation, columns, self.kind, name)
        #: ``columns`` are the canonical names, as in the relation schema.
        self.name, self.columns, _, self.positions = self.definition
        self.key_of = _key_getter(self.positions)
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
    """Construct (but do not list on ``relation``) an index of the given kind."""
    return _kind_class(kind)(relation, columns, name=name)


def _kind_class(kind: str) -> type:
    try:
        return _KIND_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown index kind {kind!r} (use one of {list(INDEX_KINDS)})") from None


class IndexDef(NamedTuple):
    """An index definition: the only record of an index.  A relation
    version lists its definitions (:func:`index_defs_on`), a cached plan
    names the index it reads by one, and an :class:`Index` handle is built
    from one per version; it holds none of the rows."""

    name: str
    columns: Tuple[str, ...]
    kind: str
    positions: Tuple[int, ...]


def index_def(
    relation: Relation, columns: Sequence[str], kind: str = "hash", name: Optional[str] = None
) -> IndexDef:
    """The definition of a ``kind`` index over ``relation``'s ``columns``,
    named ``name`` or after its columns; builds nothing."""
    _kind_class(kind)
    schema = relation.schema
    positions = tuple(schema.resolve(c) for c in columns)
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate columns in index definition: {list(columns)}")
    canonical = tuple(schema.names[p] for p in positions)
    return IndexDef(name or default_index_name(canonical), canonical, kind, positions)


def default_index_name(columns: Sequence[str]) -> str:
    """The name an index over ``columns`` gets when none is given."""
    return f"idx_{'_'.join(c.replace('.', '_') for c in columns)}"


# ----------------------------------------------------------------------
# a version's definitions, and its handle memo
# ----------------------------------------------------------------------
#: Serializes the first build of a version's handles and every change to
#: a version's definitions (DDL on a U-database also holds its write
#: lock): a handle, and so each segment structure under it, is built
#: once, however many planners make the first access together, and a
#: change never loses a concurrent one.
_LOCK = threading.Lock()


def forget_facts(relation: Relation) -> None:
    """Drop the planning facts memoized on ``relation``
    (:func:`repro.relational.plancache.planning_facts`): called *after*
    every change to its index definitions or its statistics, so a fill
    that read the old state wrote it into a dict no lookup reads any
    more."""
    relation._facts = None


def index_defs_on(relation: Relation) -> Tuple[IndexDef, ...]:
    """The definitions ``relation`` lists, built or not; builds nothing."""
    return getattr(relation, "_index_defs", ())


def _handle(relation: Relation, definition: IndexDef) -> Optional[Index]:
    """The memoized handle of ``definition`` over ``relation``, built now
    if it has none yet; ``None`` when it cannot build over this version
    (sorted keys that do not compare, a missing column).  ``_LOCK`` held."""
    handles = getattr(relation, "_indexes", None)
    if handles is None:
        handles = relation._indexes = {}
    if definition not in handles:
        try:
            handles[definition] = build_index(
                relation, definition.columns, kind=definition.kind, name=definition.name
            )
        except (TypeError, SchemaError):
            handles[definition] = None
    return handles[definition]


def _list(relation: Relation, definitions: Tuple[IndexDef, ...]) -> Dict[IndexDef, Optional[Index]]:
    """List ``definitions`` on ``relation`` in place of its own and return
    its handle memo, pruned to them (a dropped definition's handle goes,
    so no write carries it on).  ``_LOCK`` held."""
    handles = getattr(relation, "_indexes", None) or {}
    handles = relation._indexes = {d: h for d, h in handles.items() if d in definitions}
    relation._index_defs = definitions
    forget_facts(relation)
    return handles


def set_index_defs(relation: Relation, definitions: Sequence[IndexDef]) -> None:
    """List ``definitions`` on ``relation`` in place of its own; a new one
    builds on first planner access.  A change drops the relation's
    planning facts, so a cached plan over it re-plans if its definition
    set differs."""
    definitions = tuple(definitions)
    with _LOCK:
        if definitions != index_defs_on(relation):
            _list(relation, definitions)


def drop_index_def(relation: Relation, name: str) -> bool:
    """Drop the definition called ``name``; False if ``relation`` lists
    none (see :func:`set_index_defs`)."""
    with _LOCK:
        listed = index_defs_on(relation)
        kept = tuple(d for d in listed if d.name != name)
        if len(kept) == len(listed):
            return False
        _list(relation, kept)
        return True


def ensure_index(
    relation: Relation, columns: Sequence[str], kind: str = "hash", name: Optional[str] = None
) -> Index:
    """The index over ``columns`` of ``kind`` that ``relation`` lists,
    built now if need be, or a new one, built and listed.

    A listed definition is only reused when the caller did not ask for a
    specific ``name`` (or asked for the one it already has) — EXPLAIN
    attributes scans by index name, so an explicitly-named creation must
    yield an index that actually bears that name.  Nothing else is built.
    Raises ``TypeError`` when a sorted index's keys do not compare.
    """
    positions = tuple(relation.schema.resolve(c) for c in columns)
    with _LOCK:
        for definition in index_defs_on(relation):
            if (
                definition.positions == positions
                and definition.kind == kind
                and name in (None, definition.name)
            ):
                index = _handle(relation, definition)
                if index is None:  # cannot build here: raise why
                    index = build_index(relation, columns, kind=kind, name=definition.name)
                return index
        index = build_index(relation, columns, kind=kind, name=name)
        _list(relation, index_defs_on(relation) + (index.definition,))[index.definition] = index
        return index


def indexes_on(relation: Relation) -> Tuple[Index, ...]:
    """The index of every definition ``relation`` lists that builds over
    it (hash indexes first).

    This is the planner's discovery hook: its first call on a version
    builds a handle for every definition (exactly once, even under
    concurrent planning — see :data:`_LOCK`); a write's successor holds
    its parent's handles already (:func:`carry_handles`).
    """
    definitions = index_defs_on(relation)
    if not definitions:
        return ()
    handles = getattr(relation, "_indexes", None)
    if handles is None or not all(map(handles.__contains__, definitions)):
        with _LOCK:
            for definition in index_defs_on(relation):
                _handle(relation, definition)
        handles = relation._indexes
    found = [index for index in map(handles.get, definitions) if index is not None]
    return tuple(sorted(found, key=lambda i: i.kind != "hash"))


def built_indexes_on(relation: Relation) -> Tuple[Index, ...]:
    """The handles already built for ``relation``'s definitions, in
    definition order: a view of the handle memo that builds nothing."""
    handles = getattr(relation, "_indexes", None) or {}
    return tuple(
        index for index in map(handles.get, index_defs_on(relation)) if index is not None
    )


def index_named(relation: Relation, definition: IndexDef) -> Index:
    """The index ``definition`` names on ``relation``: its handle if the
    relation lists it, or — dropped since the plan naming it was last
    validated — a private build of the same definition, not memoized."""
    handles = getattr(relation, "_indexes", None)
    index = handles.get(definition) if handles else None
    if index is None and definition in index_defs_on(relation):
        with _LOCK:
            if definition in index_defs_on(relation):
                index = _handle(relation, definition)
    if index is None:
        index = build_index(relation, definition.columns, kind=definition.kind, name=definition.name)
    return index


def carry_handles(old: Relation, new: Relation) -> None:
    """Give ``new``, a write's successor of ``old`` listing the same
    definitions, a handle for each one ``old`` has a handle for: its
    segments' structures are shared, so only an added segment is
    indexed.  A sorted index whose keys no longer compare across the
    segments has ``None`` there, and builds again on a later version.

    ``new`` is a fresh version with no planning facts memoized yet: the
    definitions it gets are the ones a cached plan over ``old`` was built
    on, so the first lookup over ``new`` finds them unchanged and that
    plan runs over it.
    """
    handles = getattr(old, "_indexes", None)
    if not handles:
        return
    # an append adds its segment at the end, a delete adds none, and a
    # compaction replaces them all with a new base
    kept = len(old._runs) if new._runs[0][0] is old._runs[0][0] else 0
    added = [segment for segment, _ in new._runs[kept:]]
    carried: Dict[IndexDef, Optional[Index]] = {}
    for definition, index in list(handles.items()):
        if index is not None:
            try:
                carried[definition] = index.successor(new, added)
            except TypeError:
                carried[definition] = None
    new._indexes = carried
