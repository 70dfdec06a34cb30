"""Relations: a schema plus a list of row tuples.

Rows are plain Python tuples; a :class:`Relation` is cheap to construct and
behaves like a value (equality is set-of-rows equality under the same
schema).  Physical operators produce row iterators; :func:`Relation.from_rows`
materializes them.

The engine implements *bag* semantics internally (duplicates are kept unless
a ``Distinct`` is applied), matching what the paper's translation produces on
a SQL engine; convenience set-style helpers are provided for tests.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import countOf, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .schema import Attribute, Schema, SchemaError
from .types import DataType, format_value, infer_type

__all__ = ["Relation", "Segment"]


class Segment:
    """One immutable run of appended rows inside a segmented relation.

    Segments are shared *by identity* between relation versions: appending
    to a relation produces a new :class:`Relation` whose segment tuple is
    the old tuple plus one new segment.  The per-segment columnar
    transposition is cached on the segment itself, so every relation
    version built from the same segment reuses the same vectors.
    """

    __slots__ = ("segment_id", "rows", "_columns")

    def __init__(self, segment_id: int, rows: Iterable[Tuple[Any, ...]]):
        self.segment_id = int(segment_id)
        self.rows: Tuple[Tuple[Any, ...], ...] = tuple(rows)
        self._columns: Optional[List[tuple]] = None

    def column_store(self, width: int) -> List[tuple]:
        cols = self._columns
        if cols is None:
            if self.rows:
                cols = list(zip(*self.rows))
            else:
                cols = [() for _ in range(width)]
            self._columns = cols
        return cols

    def __repr__(self) -> str:
        return f"Segment({self.segment_id}, {len(self.rows)} rows)"


class Relation:
    """An in-memory relation: immutable schema + list of row tuples."""

    # ``_indexes`` holds secondary indexes attached by
    # :mod:`repro.relational.index` and ``_pending_indexes`` their deferred
    # (not yet built) definitions; ``_columns`` caches the columnar form
    # used by the column executor; ``_facts`` memoizes the prepared-plan
    # cache's planning facts of this version, per probe set
    # (:func:`repro.relational.plancache.planning_facts`), dropped by the
    # index and statistics changes that can move one.  All are
    # planner-visible state, not part of the relation's value (equality
    # and repr ignore them).
    # ``_labels`` (the sorted indexes' per-row sort labels once deletes
    # part them from positions, managed by :mod:`repro.relational.index`),
    # the per-column facts ``_has_null`` and ``_all_equal``, and
    # ``_stats`` (the optimizer's
    # :class:`~repro.relational.statistics.TableStats`) complete the
    # derived state that :meth:`_derive` carries from version to version.
    # ``_segments``/``_deleted`` carry the write path's log-structured
    # form (immutable appended segments plus a delete vector of global
    # ordinals); when unset the relation is its own single base segment.
    __slots__ = (
        "schema",
        "rows",
        "_indexes",
        "_pending_indexes",
        "_labels",
        "_columns",
        "_has_null",
        "_all_equal",
        "_stats",
        "_facts",
        "_segments",
        "_deleted",
        "__weakref__",
    )

    def __init__(self, schema, rows: Optional[Iterable[Sequence[Any]]] = None):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema: Schema = schema
        self.rows: List[Tuple[Any, ...]] = []
        if rows is not None:
            width = len(schema)
            for row in rows:
                row_t = tuple(row)
                if len(row_t) != width:
                    raise SchemaError(
                        f"row arity {len(row_t)} does not match schema arity {width}: {row_t!r}"
                    )
                self.rows.append(row_t)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Materialize an iterator of rows under a schema."""
        return cls(schema, rows)

    @classmethod
    def from_trusted(cls, schema: Schema, rows: List[Tuple[Any, ...]]) -> "Relation":
        """Adopt an already-validated list of row tuples without copying.

        Fast path for the executor, whose operators only ever emit
        tuples of the correct arity; the caller must not mutate ``rows``
        afterwards.
        """
        relation = cls.__new__(cls)
        relation.schema = schema if isinstance(schema, Schema) else Schema(schema)
        relation.rows = rows
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
        """Build a relation as immutable segments plus a delete vector.

        ``deleted`` holds *global ordinals* over the concatenation of all
        segment rows (in segment order, before deletion).  ``rows`` is the
        materialized live view, so the executor and the ``rows()``
        reference work on segmented relations unchanged.
        """
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        deleted = frozenset(deleted)
        live: List[Tuple[Any, ...]] = []
        for segment in segments:
            live.extend(segment.rows)
        if deleted:
            live = _without(live, sorted(deleted))
        relation = cls.from_trusted(schema, live)
        relation._segments = tuple(segments)
        relation._deleted = deleted
        return relation

    # ------------------------------------------------------------------
    # segmented (write-path) view
    # ------------------------------------------------------------------
    def segments(self) -> Tuple[Segment, ...]:
        """The relation's segments; a plain relation is one base segment."""
        segments = getattr(self, "_segments", None)
        if segments is None:
            segments = (Segment(0, tuple(self.rows)),)
            self._segments = segments
            self._deleted = frozenset()
        return segments

    def deleted_ordinals(self) -> frozenset:
        """Global ordinals (over concatenated segment rows) marked deleted."""
        return getattr(self, "_deleted", None) or frozenset()

    def _derive(
        self,
        segments: Tuple[Segment, ...],
        deleted: frozenset,
        removed: Sequence[int] = (),
        appended: Sequence[Tuple[Any, ...]] = (),
    ) -> "Relation":
        """The next version of this relation, its derived state carried.

        The write path's only three derivations come through here:
        delete (``removed``: ascending live positions), append
        (``appended``: rows at the end) and compact (neither: the live
        view is identical).  Whatever this version has already *built* -
        column vectors, NULL and all-equal facts, statistics, and through
        :func:`~repro.relational.index.carry_indexes` the indexes - is
        carried by applying that delta; unchanged rows are only ever
        moved by C-level slice copies, and the receiver is never mutated
        (pinned snapshots and in-flight plans keep reading it).  State
        not built yet stays unbuilt, so write-only pipelines pay nothing.
        """
        rows = self.rows
        if removed:
            rows = _without(rows, removed)
        if appended:
            rows = rows + appended
        new = Relation.from_trusted(self.schema, rows)
        new._segments = segments
        new._deleted = deleted
        columns = getattr(self, "_columns", None)
        if columns is not None:
            if removed:
                columns = [tuple(_without(column, removed)) for column in columns]
            if appended:
                fresh = segments[-1].column_store(len(columns))
                columns = [column + tail for column, tail in zip(columns, fresh)]
            new._columns = columns
        has_null = getattr(self, "_has_null", None)
        if has_null:
            # a removal may have taken a column's last NULL: only the
            # NULL-free verdicts survive it; an append can only add one
            new._has_null = {
                position: known or any(row[position] is None for row in appended)
                for position, known in has_null.items()
                if not (known and removed)
            }
        all_equal = getattr(self, "_all_equal", None)
        if all_equal:
            # an append keeps a true verdict only if every appended row
            # agrees; a removal keeps the true verdicts and drops the rest
            new._all_equal = {
                (position, value): known
                and all(row[position] == value for row in appended)
                for (position, value), known in all_equal.items()
                if known or not removed
            }
        stats = getattr(self, "_stats", None)
        if stats is not None:
            new._stats = stats.inherited(new, len(removed) + len(appended))
        from .index import carry_indexes

        carry_indexes(self, new, removed, appended)
        return new

    def with_appended(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """A new relation value with one fresh segment appended.

        The receiver is untouched (in-flight plans and pinned snapshots
        keep reading the old value); existing segments are shared by
        identity, and built derived state follows (:meth:`_derive`).
        """
        width = len(self.schema)
        appended: List[Tuple[Any, ...]] = []
        for row in rows:
            row_t = tuple(row)
            if len(row_t) != width:
                raise SchemaError(
                    f"row arity {len(row_t)} does not match schema arity {width}: {row_t!r}"
                )
            appended.append(row_t)
        segments = self.segments()
        next_id = max(s.segment_id for s in segments) + 1 if segments else 0
        return self._derive(
            segments + (Segment(next_id, appended),),
            self.deleted_ordinals(),
            appended=appended,
        )

    def compacted(self) -> "Relation":
        """A new relation value with every live row in one fresh base segment.

        The write path's merge step: the segment stack and delete vector
        collapse into a single segment holding exactly ``rows``.  Returns
        ``self`` when already compact (one segment, nothing deleted), so
        callers can detect no-ops by identity.  The live view does not
        change, so the row list and all built derived state are shared
        with the receiver as they are.

        The base segment takes a *fresh* id (one past the highest existing
        id) rather than restarting at 0: persistence names segment files by
        id, so the compacted base never collides with an old segment file
        on disk — the save writes it alongside the old files and commits by
        swapping the manifest atomically (see :mod:`repro.core.persist`).
        """
        segments = self.segments()
        if len(segments) == 1 and not self.deleted_ordinals():
            return self
        base = Segment(max(s.segment_id for s in segments) + 1, self.rows)
        # the live-row column vectors ARE the new base's columns
        base._columns = getattr(self, "_columns", None)
        return self._derive((base,), frozenset())

    def with_deleted(self, live_positions: Iterable[int]) -> "Relation":
        """A new relation value with the given live rows marked deleted.

        ``live_positions`` index into ``rows``; they are translated to
        global ordinals and merged into the delete vector.  Segments are
        shared untouched.
        """
        removed = sorted(set(live_positions))
        if not removed:
            return self
        if removed[0] < 0 or removed[-1] >= len(self.rows):
            raise IndexError(f"live position out of range: {removed}")
        # live rows ahead of each deleted ordinal, ascending: a live
        # position lies past every deleted ordinal with at most that many
        vector = sorted(self.deleted_ordinals())
        ahead = [ordinal - i for i, ordinal in enumerate(vector)]
        extra = {p + bisect_right(ahead, p) for p in removed}
        return self._derive(
            self.segments(), self.deleted_ordinals() | extra, removed=removed
        )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality under identical schemas (order-insensitive)."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        return sorted(self.rows, key=_sort_key) == sorted(other.rows, key=_sort_key)

    def __repr__(self) -> str:
        return f"Relation({self.schema.names}, {len(self.rows)} rows)"

    # ------------------------------------------------------------------
    # basic derived relations (convenience layer used by tests/examples;
    # query processing goes through algebra + physical operators)
    # ------------------------------------------------------------------
    def column(self, reference: str) -> List[Any]:
        """All values of one column, in row order."""
        i = self.schema.resolve(reference)
        return [row[i] for row in self.rows]

    def column_store(self) -> List[tuple]:
        """The rows transposed to per-column vectors, cached.

        The column executor's sequential scans slice these vectors instead
        of chunking row tuples.  Rows are immutable once a relation is
        built, so the transposition is computed once per relation object.
        Segmented relations concatenate the *live* run of each segment's
        cached per-segment vectors, so appending a segment transposes only
        the new rows.
        """
        store = getattr(self, "_columns", None)
        if store is None:
            segments = getattr(self, "_segments", None)
            width = len(self.schema)
            if segments is None:
                if self.rows:
                    store = list(zip(*self.rows))
                else:
                    store = [() for _ in range(width)]
            else:
                runs = list(zip(*(s.column_store(width) for s in segments)))
                store = [
                    run[0] if len(run) == 1 else tuple(chain.from_iterable(run))
                    for run in runs
                ] or [() for _ in range(width)]
                vector = sorted(self.deleted_ordinals())
                if vector:
                    store = [tuple(_without(column, vector)) for column in store]
            self._columns = store
        return store

    def column_has_null(self, position: int) -> bool:
        """Whether a column contains any NULL, cached per column.

        Computed with a C-speed ``in`` scan over the column vector, or over
        the rows when no vectors are built (a partition only ever probed
        through its indexes gets none for this); the columnar executor
        uses this to prove columns NULL-free and select generated kernels
        without per-value NULL guards.
        """
        cache = getattr(self, "_has_null", None)
        if cache is None:
            cache = {}
            self._has_null = cache
        known = cache.get(position)
        if known is None:
            store = getattr(self, "_columns", None)
            column = map(itemgetter(position), self.rows) if store is None else store[position]
            known = None in column
            cache[position] = known
        return known

    def column_all_equal(self, position: int, value: Any) -> bool:
        """Whether every value of a column equals ``value``, cached per
        (column, value).

        Computed on first use with a C-speed count over the rows (no
        column vectors are built for it) and carried along the write path
        by :meth:`_derive`: an append keeps a true verdict only if every
        appended row agrees (checked over the delta alone), a removal
        keeps a true verdict and drops a false one, a compaction keeps
        both.  The U-relation translation asks it of descriptor columns:
        a variable column that holds the trivial variable in every row is
        a slot no ψ needs to compare.  An empty column is all-equal.
        """
        cache = getattr(self, "_all_equal", None)
        if cache is None:
            cache = {}
            self._all_equal = cache
        key = (position, value)
        known = cache.get(key)
        if known is None:
            known = countOf(map(itemgetter(position), self.rows), value) == len(self.rows)
            cache[key] = known
        return known

    def project(self, references: Sequence[str]) -> "Relation":
        """Projection (bag semantics, preserves duplicates)."""
        positions = self.schema.positions(references)
        new_schema = self.schema.project(references)
        return Relation(new_schema, (tuple(row[i] for i in positions) for row in self.rows))

    def select(self, predicate: Callable[[Tuple[Any, ...]], bool]) -> "Relation":
        """Selection by an arbitrary row predicate."""
        return Relation(self.schema, (row for row in self.rows if predicate(row)))

    def distinct(self) -> "Relation":
        """Duplicate elimination, preserving first-occurrence order."""
        seen = set()
        out = []
        for row in self.rows:
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
        return Relation(self.schema, self.rows + other.rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference (duplicates in ``self`` collapse to membership test)."""
        if len(self.schema) != len(other.schema):
            raise SchemaError(
                f"difference arity mismatch: {len(self.schema)} vs {len(other.schema)}"
            )
        gone = set(other.rows)
        return Relation(self.schema, (row for row in self.rows if row not in gone))

    def product(self, other: "Relation") -> "Relation":
        """Cartesian product (schemas concatenated)."""
        new_schema = self.schema.concat(other.schema)
        return Relation(
            new_schema, (left + right for left in self.rows for right in other.rows)
        )

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        """Rename attributes (rows unchanged)."""
        return Relation(self.schema.rename(mapping), self.rows)

    def qualify(self, alias: str) -> "Relation":
        """Re-qualify all attributes under an alias (for self-joins)."""
        return Relation(self.schema.qualify(alias), self.rows)

    def sorted(self, references: Optional[Sequence[str]] = None) -> "Relation":
        """Rows sorted by the given columns (or all columns)."""
        if references is None:
            key = _sort_key
        else:
            positions = self.schema.positions(references)

            def key(row: Tuple[Any, ...]):
                return _sort_key(tuple(row[i] for i in positions))

        return Relation(self.schema, sorted(self.rows, key=key))

    def as_set(self) -> frozenset:
        """The rows as a frozenset (for set-semantics assertions in tests)."""
        return frozenset(self.rows)

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
            seen = {infer_type(row[i]) for row in self.rows if row[i] is not None}
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
        shown = self.rows[:limit]
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
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)


def _without(sequence: Sequence[Any], positions: Sequence[int]) -> List[Any]:
    """``sequence`` minus its ascending ``positions``, by slice copies alone."""
    out: List[Any] = []
    start = 0
    for position in positions:
        out.extend(sequence[start:position])
        start = position + 1
    out.extend(sequence[start:])
    return out


def _sort_key(row: Tuple[Any, ...]) -> Tuple:
    """Total order over heterogeneous rows (None first, then by type name)."""
    return tuple((value is not None, type(value).__name__, value) for value in row)
