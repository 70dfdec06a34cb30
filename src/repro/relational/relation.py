"""Relations: a schema plus immutable segments of row tuples and a delete vector.

A :class:`Relation` version is ``(schema, segments, delete vector)``: one
or more immutable :class:`Segment` runs of row tuples, and per segment the
positions of its rows that are deleted.  Rows are plain Python tuples, a
relation is cheap to construct and behaves like a value (equality is
set-of-rows equality under the same schema).  Physical operators produce
row iterators; :func:`Relation.from_rows` materializes them as one
segment.

The write path never copies a version: an append adds one segment, a
delete adds positions to the vector, and only a compaction (``VACUUM``)
writes the live rows into one new base segment, reusing the old base's
slots (:meth:`Relation.compacted`).  Everything derived from a segment's
own rows - its column vectors, NULL and all-equal counts, index
structures and join probe tables - is built on the segment, once, and
shared by identity by every version that holds it; a compaction's new
base gets the old base's by edits (:data:`EDIT_RULES`).  What a cached
plan derives from a segment's rows and its own literal predicates (the
rows a scan filter keeps, a probe filter's restricted probe table) lives
on the plan node, keyed weakly by the segment: it dies with the shorter
lived of the two, and a segment never changes, so it never goes stale
(:mod:`repro.relational.physical`).  A version keeps only what is not
derived from one segment alone: the tuple of index definitions it lists
(each write's successor takes the same tuple), the index handles built
from them, statistics and planning facts.  :attr:`Relation.rows` is the
live rows as one sequence, built on demand when the version is more than
one clean segment.

The engine implements *bag* semantics internally (duplicates are kept unless
a ``Distinct`` is applied), matching what the paper's translation produces on
a SQL engine; convenience set-style helpers are provided for tests.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, compress, islice, repeat
from operator import countOf, itemgetter, not_
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .schema import Schema, SchemaError
from .types import DataType, format_value, infer_type

__all__ = ["Relation", "Refill", "Segment", "live_rows"]

Row = Tuple[Any, ...]

#: A segment with nothing deleted.
_NOTHING: frozenset = frozenset()


class Segment:
    """One immutable run of rows, and everything derived from them alone.

    Segments are shared *by identity* between relation versions: an append
    produces a version whose segments are the old ones plus one new one.
    :meth:`memo` keeps each value derived from the rows (column vectors,
    value counts, index structures, probe tables) on the segment, so every
    version holding it reuses the same value.  ``rows`` must not be
    mutated once the segment exists.  A plan node may key what it derives
    from the rows by a weak reference to the segment.
    """

    __slots__ = ("segment_id", "rows", "_memo", "__weakref__")

    def __init__(self, segment_id: int, rows: Iterable[Row]):
        self.segment_id = int(segment_id)
        self.rows: List[Row] = rows if type(rows) is list else list(rows)
        self._memo: Dict[tuple, Any] = {}

    def memo(self, build: Callable[..., Any], *args: Any) -> Any:
        """``build(self, *args)``, computed on first use and kept.

        ``build`` is a module-level function and, with ``args``, the key.
        Threads racing on a first use each build an equal value and the
        first one stored stays (``dict.setdefault``): a filled entry never
        changes.  A compaction carries the entries over to its new base
        segment by :meth:`Refill.carry`.
        """
        key = (build, *args)
        value = self._memo.get(key)
        if value is None:
            value = self._memo.setdefault(key, build(self, *args))
        return value

    def columns(self, width: int) -> List[tuple]:
        """The rows transposed to ``width`` per-column vectors."""
        return self.memo(_transpose, width)

    def __repr__(self) -> str:
        return f"Segment({self.segment_id}, {len(self.rows)} rows)"


def _transpose(segment: Segment, width: int) -> List[tuple]:
    rows = segment.rows
    return list(zip(*rows)) if rows else [() for _ in range(width)]


def _count(segment: Segment, position: int, value: Any) -> int:
    return countOf(map(itemgetter(position), segment.rows), value)


def _nulls(segment: Segment, width: int) -> Dict[int, int]:
    """Per column holding NULL in some row: how many rows hold it."""
    counts = (_count(segment, position, None) for position in range(width))
    return {position: held for position, held in enumerate(counts) if held}


def _edited_columns(columns: List[tuple], refill: "Refill", width: int) -> List[tuple]:
    size = len(refill.new.rows)
    slots = list(refill.placed)
    rows = list(refill.placed.values())
    edited = []
    for position, column in enumerate(columns):
        column = list(column)
        del column[size:]
        column.extend(repeat(None, size - len(column)))
        for slot, value in zip(slots, map(itemgetter(position), rows)):
            column[slot] = value
        edited.append(tuple(column))
    return edited


def _edited_count(held: int, refill: "Refill", position: int, value: Any) -> int:
    out = countOf(map(itemgetter(position), refill.removed.values()), value)
    return held - out + countOf(map(itemgetter(position), refill.placed.values()), value)


def _edited_nulls(nulls: Dict[int, int], refill: "Refill", width: int) -> Dict[int, int]:
    counts = (
        _edited_count(nulls.get(position, 0), refill, position, None)
        for position in range(width)
    )
    return {position: held for position, held in enumerate(counts) if held}


#: Per memoized build function, its edit rule: ``rule(value, refill,
#: *args)`` is ``build(refill.new, *args)``, computed from ``value``, the
#: old base's ``build(refill.old, *args)``, in work proportional to the
#: slots the refill touches (:mod:`repro.relational.index` adds the index
#: structures' and probe tables' rules).
EDIT_RULES: Dict[Callable[..., Any], Callable[..., Any]] = {
    _transpose: _edited_columns,
    _count: _edited_count,
    _nulls: _edited_nulls,
}

#: A compaction edits the old base's derived state while the slots it
#: may touch are at most this share of the new base's rows, and builds it
#: afresh above (see :meth:`Relation.compacted`).
EDIT_SHARE = 0.25


class Refill(NamedTuple):
    """How a compaction's new base segment differs from the old base.

    ``removed`` maps each slot of the old base whose row leaves it (a dead
    row, or a live row moved into a hole) to that row, ``placed`` each
    slot of the new base that takes a row to that row; every other slot
    holds the same row in both.  :meth:`carry` moves the old base's
    derived state over by :data:`EDIT_RULES`.
    """

    old: Segment
    new: Segment
    removed: Dict[int, Row]
    placed: Dict[int, Row]

    def carry(self, build: Callable[..., Any], *args: Any) -> Any:
        """``new.memo(build, *args)``, edited from the old base's value when
        it has one and ``build`` has a rule.  Never shared yet: the new
        segment is the compaction's own until it is published."""
        key = (build, *args)
        memo = self.new._memo
        value = memo.get(key)
        if value is None:
            held = self.old._memo.get(key)
            rule = EDIT_RULES.get(build)
            if held is None or rule is None:
                value = build(self.new, *args)
            else:
                value = rule(held, self, *args)
            memo[key] = value
        return value


def _live(segment: Segment, dead: frozenset) -> Iterable[Row]:
    """The rows of ``segment`` not in ``dead``, in order (no copy when
    nothing is dead)."""
    rows = segment.rows
    if not dead:
        return rows
    return compress(rows, map(not_, map(dead.__contains__, range(len(rows)))))


def live_rows(runs: Iterable[Tuple[Segment, frozenset]]) -> Iterator[Row]:
    """Every live row of ``(segment, dead positions)`` runs, in order."""
    return chain.from_iterable(_live(segment, dead) for segment, dead in runs)


def _marked(runs: tuple, ordinals: Iterable[int]) -> tuple:
    """``runs`` with the global ``ordinals`` added to their dead sets; the
    very same tuple when every one of them is dead already."""
    starts = []
    total = 0
    for segment, _ in runs:
        starts.append(total)
        total += len(segment.rows)
    local: Dict[int, List[int]] = {}
    for ordinal in set(ordinals):
        if not 0 <= ordinal < total:
            raise IndexError(f"ordinal {ordinal} out of range for {total} rows")
        at = bisect_right(starts, ordinal) - 1
        local.setdefault(at, []).append(ordinal - starts[at])
    marked = list(runs)
    changed = False
    for at, positions in local.items():
        segment, dead = marked[at]
        if not dead.issuperset(positions):
            marked[at] = (segment, dead.union(positions))
            changed = True
    return tuple(marked) if changed else runs


class Relation:
    """An in-memory relation: immutable schema + segments + delete vector."""

    # ``_runs`` is the version's storage: one ``(segment, dead)`` pair per
    # segment, ``dead`` the frozenset of the segment's deleted row
    # positions.  ``_index_defs`` is the tuple of index definitions the
    # version lists and ``_indexes`` its memo of their handles, built on
    # first planner access (:mod:`repro.relational.index`); ``_stats`` is
    # the optimizer's :class:`~repro.relational.statistics.TableStats`;
    # ``_facts`` memoizes the prepared-plan cache's planning facts of this
    # version, per probe set (:func:`repro.relational.plancache.planning_facts`),
    # dropped by the index and statistics changes that can move one.  All but
    # ``_runs`` are planner-visible state, not part of the relation's
    # value (equality and repr ignore them).
    __slots__ = (
        "schema",
        "_runs",
        "_index_defs",
        "_indexes",
        "_stats",
        "_facts",
        "__weakref__",
    )

    def __init__(self, schema, rows: Optional[Iterable[Sequence[Any]]] = None):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema: Schema = schema
        checked: List[Row] = []
        if rows is not None:
            width = len(schema)
            for row in rows:
                row_t = tuple(row)
                if len(row_t) != width:
                    raise SchemaError(
                        f"row arity {len(row_t)} does not match schema arity {width}: {row_t!r}"
                    )
                checked.append(row_t)
        self._runs = ((Segment(0, checked), _NOTHING),)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Materialize an iterator of rows under a schema."""
        return cls(schema, rows)

    @classmethod
    def from_trusted(cls, schema: Schema, rows: List[Row]) -> "Relation":
        """Adopt an already-validated list of row tuples without copying.

        Fast path for the executor, whose operators only ever emit
        tuples of the correct arity; the caller must not mutate ``rows``
        afterwards.
        """
        relation = cls.__new__(cls)
        relation.schema = schema if isinstance(schema, Schema) else Schema(schema)
        relation._runs = ((Segment(0, rows), _NOTHING),)
        return relation

    @classmethod
    def from_dicts(cls, schema, dicts: Iterable[Dict[str, Any]]) -> "Relation":
        """Build a relation from dictionaries keyed by attribute name."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        names = schema.names
        return cls(schema, (tuple(d.get(n) for n in names) for d in dicts))

    @classmethod
    def empty(cls, schema) -> "Relation":
        """An empty relation over the given schema."""
        return cls(schema, [])

    @classmethod
    def from_segments(
        cls,
        schema,
        segments: Sequence[Segment],
        deleted: Iterable[int] = (),
    ) -> "Relation":
        """A relation of immutable segments plus a delete vector.

        ``deleted`` holds *global ordinals* over the concatenation of all
        segment rows (in segment order, before deletion).
        """
        relation = cls.__new__(cls)
        relation.schema = schema if isinstance(schema, Schema) else Schema(schema)
        relation._runs = _marked(tuple((segment, _NOTHING) for segment in segments), deleted)
        return relation

    # ------------------------------------------------------------------
    # segmented (write-path) view
    # ------------------------------------------------------------------
    def segments(self) -> Tuple[Segment, ...]:
        """The relation's segments, oldest first."""
        return tuple(segment for segment, _ in self._runs)

    def deleted_ordinals(self) -> frozenset:
        """Global ordinals (over concatenated segment rows) marked deleted."""
        out: List[int] = []
        start = 0
        for segment, dead in self._runs:
            out.extend(start + position for position in dead)
            start += len(segment.rows)
        return frozenset(out)

    def deleted_count(self) -> int:
        """How many rows the delete vector holds."""
        return sum(len(dead) for _, dead in self._runs)

    def _next(self, runs: tuple, changed: int) -> "Relation":
        """The version of this relation stored as ``runs``, ``changed``
        rows away: it takes this version's index definitions (the same
        tuple), a handle for each one this version has a handle for and,
        until the analyze threshold, its statistics.  The receiver is never
        mutated (pinned snapshots and in-flight plans keep reading it)."""
        new = Relation.__new__(Relation)
        new.schema = self.schema
        new._runs = runs
        stats = getattr(self, "_stats", None)
        if stats is not None:
            new._stats = stats.inherited(new, changed)
        definitions = getattr(self, "_index_defs", None)
        if definitions:
            from .index import carry_handles

            new._index_defs = definitions
            carry_handles(self, new)
        return new

    def with_appended(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """A new relation value with one fresh segment of ``rows`` appended.

        The receiver is untouched; existing segments are shared by
        identity, so only the new segment is ever transposed or indexed.
        """
        width = len(self.schema)
        appended: List[Row] = []
        for row in rows:
            row_t = tuple(row)
            if len(row_t) != width:
                raise SchemaError(
                    f"row arity {len(row_t)} does not match schema arity {width}: {row_t!r}"
                )
            appended.append(row_t)
        next_id = max(segment.segment_id for segment, _ in self._runs) + 1
        return self._next(self._runs + ((Segment(next_id, appended), _NOTHING),), len(appended))

    def with_deleted(self, ordinals: Iterable[int]) -> "Relation":
        """A new relation value with the rows at the global ``ordinals``
        (:meth:`deleted_ordinals`' numbering) marked deleted.

        Segments are shared untouched; ``self`` comes back when every
        ordinal is deleted already.
        """
        runs = _marked(self._runs, ordinals)
        if runs is self._runs:
            return self
        changed = sum(len(dead) for _, dead in runs) - self.deleted_count()
        return self._next(runs, changed)

    def compacted(self) -> "Relation":
        """A new relation value whose live rows are one fresh base segment,
        laid out like PostgreSQL's plain ``VACUUM`` reuses tuple slots.

        The new base starts as a copy of the old base's row list: each dead
        slot takes a live row of the later segments, the rows left over go
        at the end, and while dead slots outnumber them the last live rows
        move into the holes.  Every other row keeps its slot, so a
        compacted relation's row order is slot order, not insertion order.

        Whatever the old base had built (column vectors, counts, index
        structures, probe tables) the new base holds too, and the reads
        after it build nothing: each is the old value plus edits for the
        slots the refill touches (:class:`Refill`, :data:`EDIT_RULES`);
        what only the later segments had built is built on first use.
        The old values are copied where edited, never changed, so a version
        pinned before the compaction answers as before.  Once the slots it
        may touch (each new row, and each dead slot twice) exceed
        :data:`EDIT_SHARE` of the new base's rows (a bulk load into a small
        base), building afresh is the cheaper way and is what runs: on a
        7 310-row partition with a hash and a sorted index, probe tables,
        column vectors and counts, editing costs as much as building at
        about a quarter.  A sorted index whose keys no longer compare
        builds nothing here: its definition stays listed, with no handle
        over the new version (:func:`~repro.relational.index.carry_handles`).
        Returns ``self`` when already compact (one segment, nothing
        deleted), so callers can detect no-ops by identity.

        The base segment takes a *fresh* id (one past the highest existing
        id) rather than restarting at 0: persistence names segment files by
        id, so the compacted base never collides with an old segment file
        on disk — the save writes it alongside the old files and commits by
        swapping the manifest atomically (see :mod:`repro.core.persist`).
        """
        runs = self._runs
        if len(runs) == 1 and not runs[0][1]:
            return self
        old, dead = runs[0]
        rows = old.rows[:]
        size = len(rows)
        fresh = list(live_rows(runs[1:]))
        holes = sorted(dead)
        # a hole is vacated and filled, a new row placed: at most this many
        # slots change, and only an edit needs them written down
        edit = len(fresh) + 2 * len(holes) <= EDIT_SHARE * (size + len(fresh) - len(holes))
        removed: Dict[int, Row] = {}
        placed: Dict[int, Row] = {}
        for slot, row in zip(holes, fresh):
            removed[slot] = rows[slot]
            rows[slot] = placed[slot] = row
        filled = min(len(holes), len(fresh))
        extra = fresh[filled:]
        if edit:
            placed.update(zip(range(size, size + len(extra)), extra))
        rows.extend(extra)
        left = holes[filled:]
        if left:
            # the last live rows move into the lowest holes; the slots from
            # ``end`` on, holes and movers alike, are vacated
            end = size - len(left)
            vacant = set(left)
            movers = (slot for slot in range(end, size) if slot not in vacant)
            for hole, slot in zip((hole for hole in left if hole < end), movers):
                removed[hole] = rows[hole]
                rows[hole] = placed[hole] = rows[slot]
            if edit:
                removed.update(zip(range(end, size), rows[end:]))
            del rows[end:]
        base = Segment(max(segment.segment_id for segment, _ in runs) + 1, rows)
        carry = Refill(old, base, removed, placed).carry if edit else base.memo
        for build, *args in list(old._memo):
            try:
                carry(build, *args)
            except TypeError:
                pass  # sorted keys that no longer compare: no handle here
        return self._next(((base, _NOTHING),), 0)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def rows(self) -> Sequence[Row]:
        """The live rows in order: a one-segment version's own row list,
        else a list built on demand (and not kept)."""
        runs = self._runs
        if len(runs) == 1 and not runs[0][1]:
            return runs[0][0].rows
        return list(live_rows(runs))

    def __len__(self) -> int:
        runs = self._runs
        if len(runs) == 1:
            return len(runs[0][0].rows) - len(runs[0][1])
        return sum(len(segment.rows) - len(dead) for segment, dead in runs)

    def __iter__(self) -> Iterator[Row]:
        return live_rows(self._runs)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        """Bag equality under identical schemas (order-insensitive)."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        return sorted(self, key=_sort_key) == sorted(other, key=_sort_key)

    def __repr__(self) -> str:
        return f"Relation({self.schema.names}, {len(self)} rows)"

    # ------------------------------------------------------------------
    # basic derived relations (convenience layer used by tests/examples;
    # query processing goes through algebra + physical operators)
    # ------------------------------------------------------------------
    def column(self, reference: str) -> List[Any]:
        """All values of one column, in row order."""
        i = self.schema.resolve(reference)
        return [row[i] for row in self]

    def null_columns(self) -> frozenset:
        """The positions of the columns in which a live row holds NULL.

        From each segment's NULL counts (counted once per segment) and its
        dead rows alone, in one pass over the segments; the columnar
        executor uses this to prove columns NULL-free and select generated
        kernels without per-value NULL guards.
        """
        key = (_nulls, len(self.schema))  # Segment.memo's key, read inline
        out = set()
        for segment, dead in self._runs:
            nulls = segment._memo.get(key)
            if nulls is None:
                nulls = segment.memo(*key)
            for position, held in nulls.items():
                if dead:
                    rows = segment.rows
                    held -= sum(rows[p][position] is None for p in dead)
                if held:
                    out.add(position)
        return frozenset(out)

    def column_has_null(self, position: int) -> bool:
        """Whether a live row holds NULL at ``position``."""
        return position in self.null_columns()

    def column_all_equal(self, position: int, value: Any) -> bool:
        """Whether every live value of a column equals ``value``.

        From each segment's count of ``value`` (counted once per segment,
        no column vectors built) and its dead rows alone.  The U-relation
        translation asks it of descriptor columns: a variable column that
        holds the trivial variable in every row is a slot no ψ needs to
        compare.  An empty column is all-equal.
        """
        key = (_count, position, value)  # Segment.memo's key, read inline
        for segment, dead in self._runs:
            held = segment._memo.get(key)
            if held is None:
                held = segment.memo(*key)
            if dead:
                rows = segment.rows
                held -= countOf([rows[p][position] for p in dead], value)
            if held != len(segment.rows) - len(dead):
                return False
        return True

    def project(self, references: Sequence[str]) -> "Relation":
        """Projection (bag semantics, preserves duplicates)."""
        positions = self.schema.positions(references)
        new_schema = self.schema.project(references)
        return Relation(new_schema, (tuple(row[i] for i in positions) for row in self))

    def select(self, predicate: Callable[[Tuple[Any, ...]], bool]) -> "Relation":
        """Selection by an arbitrary row predicate."""
        return Relation(self.schema, (row for row in self if predicate(row)))

    def distinct(self) -> "Relation":
        """Duplicate elimination, preserving first-occurrence order."""
        seen = set()
        out = []
        for row in self:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.schema, out)

    def union(self, other: "Relation") -> "Relation":
        """Bag union; arities must match (names taken from ``self``)."""
        if len(self.schema) != len(other.schema):
            raise SchemaError(
                f"union arity mismatch: {len(self.schema)} vs {len(other.schema)}"
            )
        return Relation(self.schema, chain(self, other))

    def difference(self, other: "Relation") -> "Relation":
        """Set difference (duplicates in ``self`` collapse to membership test)."""
        if len(self.schema) != len(other.schema):
            raise SchemaError(
                f"difference arity mismatch: {len(self.schema)} vs {len(other.schema)}"
            )
        gone = set(other)
        return Relation(self.schema, (row for row in self if row not in gone))

    def product(self, other: "Relation") -> "Relation":
        """Cartesian product (schemas concatenated)."""
        new_schema = self.schema.concat(other.schema)
        inner = other.rows
        return Relation(new_schema, (left + right for left in self for right in inner))

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        """Rename attributes (rows unchanged)."""
        return Relation(self.schema.rename(mapping), self)

    def qualify(self, alias: str) -> "Relation":
        """Re-qualify all attributes under an alias (for self-joins)."""
        return Relation(self.schema.qualify(alias), self)

    def sorted(self, references: Optional[Sequence[str]] = None) -> "Relation":
        """Rows sorted by the given columns (or all columns)."""
        if references is None:
            key = _sort_key
        else:
            positions = self.schema.positions(references)

            def key(row: Tuple[Any, ...]):
                return _sort_key(tuple(row[i] for i in positions))

        return Relation(self.schema, sorted(self, key=key))

    def as_set(self) -> frozenset:
        """The rows as a frozenset (for set-semantics assertions in tests)."""
        return frozenset(self)

    # ------------------------------------------------------------------
    # inspection / output
    # ------------------------------------------------------------------
    def infer_types(self) -> List[DataType]:
        """Per-column types inferred from *all* non-null values.

        INT and FLOAT mix promotes to FLOAT; any other mix yields
        :data:`DataType.ANY` (which serializers treat as unsupported rather
        than silently corrupting values).
        """
        out: List[DataType] = []
        for i in range(len(self.schema)):
            seen = {infer_type(row[i]) for row in self if row[i] is not None}
            if not seen:
                out.append(DataType.ANY)
            elif len(seen) == 1:
                out.append(seen.pop())
            elif seen == {DataType.INT, DataType.FLOAT}:
                out.append(DataType.FLOAT)
            else:
                out.append(DataType.ANY)
        return out

    def pretty(self, limit: int = 20) -> str:
        """Render an ASCII table of up to ``limit`` rows."""
        names = self.schema.names
        shown = list(islice(self, limit))
        cells = [[format_value(v) for v in row] for row in shown]
        widths = [
            max(len(names[i]), *(len(c[i]) for c in cells)) if cells else len(names[i])
            for i in range(len(names))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        lines = [header, sep]
        for row_cells in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
        if len(self) > limit:
            lines.append(f"... ({len(self)} rows total)")
        return "\n".join(lines)


def _sort_key(row: Tuple[Any, ...]) -> Tuple:
    """Total order over heterogeneous rows (None first, then by type name)."""
    return tuple((value is not None, type(value).__name__, value) for value in row)
