"""Secondary indexes over relations.

The paper's performance argument (Figures 12-13) rests on U-relations being
*plain relations* the host DBMS can index: the tid-equijoins that reassemble
vertical partitions, and the selective scans of the experiment queries, run
as index accesses in PostgreSQL.  This module gives the substrate the same
capability:

* :class:`HashIndex`   — equality lookups (dict of key -> row bucket),
* :class:`SortedIndex` — binary-search point and range lookups over a
  key-sorted row array (the btree stand-in),
* :func:`probe_table`  — the one shape an equi-join probes, key -> row or
  [rows]: an index's :meth:`Index.mixed_table`, built on the first join
  probe, and a hash join's build side.

Indexes *attach* to the :class:`~repro.relational.relation.Relation` they
cover (a private slot on the relation object), and that slot is the only
record of them: :func:`ensure_index` creates one, :func:`defer_index`
records a definition built on first planner access, and the U-relational
catalog's index DDL works on the live partition relation.  The planner
discovers access paths through :func:`indexes_on`, so any plan that scans a
relation sees them.  Because relations are immutable values, attachment is
safe: an index can never go stale while its relation object is alive, and
a write derives a new relation object that :func:`carry_indexes` hands the
access paths on to.

NULL semantics match the executor's comparisons: rows whose key contains
``None`` are excluded from every index (a NULL never compares equal, so an
equality or range lookup can never return it).
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right
from functools import partial
from operator import itemgetter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .relation import Relation, _without

__all__ = [
    "Index",
    "HashIndex",
    "SortedIndex",
    "build_index",
    "probe_table",
    "attach_index",
    "detach_index",
    "defer_index",
    "indexes_on",
    "built_indexes_on",
    "attached_index_defs",
    "drop_index_def",
    "default_index_name",
    "ensure_index",
    "carry_indexes",
    "forget_facts",
    "IndexDef",
    "index_named",
]

Row = Tuple[Any, ...]

#: Index kinds accepted by :func:`build_index` / ``CREATE INDEX ... USING``.
INDEX_KINDS = ("hash", "sorted")


class Index:
    """Base class: an access structure over one relation's column list."""

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
        self._single = len(positions) == 1
        self._mixed: Optional[Dict[Any, Any]] = None
        self._build()

    @property
    def relation(self) -> Optional[Relation]:
        """The covered relation, or None once nothing else holds it.

        Held weakly: a relation owns its indexes (``_indexes``), and a
        strong reference back would close a cycle that keeps every
        superseded relation version of the write path — rows, column
        vectors, index tables — alive until the cycle collector's next
        full pass.  Whoever needs the relation while holding an index (a
        relational plan's ``IndexScan``, an execution's frame) holds it too.
        """
        return self._relation()

    # ------------------------------------------------------------------
    def key_of(self, row: Row) -> Any:
        """The index key of a row: a scalar for single-column indexes, else
        a tuple; ``None``-containing keys are reported as ``None``."""
        if self._single:
            return row[self.positions[0]]
        key = tuple(row[p] for p in self.positions)
        if None in key:
            return None
        return key

    def _build(self) -> None:
        raise NotImplementedError

    def _derived_shell(self, relation: Relation) -> "Index":
        """A structure-less clone of this index over a replacement relation.

        :meth:`derived` fills the access structure in without re-running
        :meth:`_build`; the target relation must share the source
        relation's schema.
        """
        clone = type(self).__new__(type(self))
        clone._relation = weakref.ref(relation)
        clone.positions = self.positions
        clone.columns = self.columns
        clone.name = self.name
        clone._single = self._single
        return clone

    def derived(
        self,
        relation: Relation,
        removed: Sequence[Row],
        removed_labels: Sequence[int],
        appended: Sequence[Row],
        first_label: int,
    ) -> "Index":
        """This index over ``relation``, a write-path successor of its own.

        ``relation`` holds this index's rows minus the ``removed`` row
        objects plus the ``appended`` rows at the end (neither: a
        compaction, and the structure is shared as it is); the labels are
        the rows' :func:`row_labels`.  Only the delta is indexed, entries
        of unchanged rows move by C-level copies, and this index is never
        mutated.
        """
        raise NotImplementedError

    def lookup(self, key: Any) -> Sequence[Row]:
        """All rows whose key equals ``key`` (in relation row order)."""
        raise NotImplementedError

    def mixed_table(self) -> Dict[Any, Any]:
        """The join probe table: key -> row, or [rows] in relation order
        when several rows share the key (the :func:`probe_table` shape).

        Built from the index's own entries on the first join probe, held
        on the index and carried along :meth:`derived` with the delta.
        Threads racing on the first probe each build an equal table, and
        one of them stays.
        """
        mixed = self._mixed
        if mixed is None:
            mixed = self._mixed = self._probe_table()
        return mixed

    def _probe_table(self) -> Dict[Any, Any]:
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of indexed rows (NULL-keyed rows are not indexed)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, columns={list(self.columns)}, {len(self)} entries)"


class HashIndex(Index):
    """Equality-lookup index: a dict from key to its bucket of rows."""

    kind = "hash"

    def _build(self) -> None:
        table: Dict[Any, List[Row]] = {}
        setdefault = table.setdefault
        key_of = self.key_of
        count = 0
        for row in self.relation.rows:
            key = key_of(row)
            if key is None:
                continue
            setdefault(key, []).append(row)
            count += 1
        self._table = table
        self._count = count

    def derived(self, relation, removed, removed_labels, appended, first_label) -> "HashIndex":
        """O(existing keys + delta): the bucket dict (and the probe dict of
        :meth:`mixed_table`, once built) is copied shallowly, without
        re-hashing old rows, and a bucket is copied only when the delta
        lands in it, so the old index's buckets are never mutated.
        """
        clone = self._derived_shell(relation)
        clone._count = self._count
        mixed = self._mixed
        if not removed and not appended:
            clone._table = self._table
            clone._mixed = mixed
            return clone
        table = clone._table = dict(self._table)
        key_of = clone.key_of
        owned: Dict[Any, List[Row]] = {}

        def own(row: Row) -> Optional[List[Row]]:
            key = key_of(row)
            if key is None:
                return None
            bucket = owned.get(key)
            if bucket is None:
                bucket = owned[key] = list(table.get(key, ()))
            return bucket

        for row in removed:
            bucket = own(row)
            if bucket is not None:
                # by identity: an equal row elsewhere in the bucket stays
                del bucket[list(map(id, bucket)).index(id(row))]
                clone._count -= 1
        for row in appended:
            bucket = own(row)
            if bucket is not None:
                bucket.append(row)
                clone._count += 1
        if mixed is not None:
            mixed = dict(mixed)
        for key, bucket in owned.items():
            if bucket:
                table[key] = bucket
                if mixed is not None:
                    mixed[key] = bucket[0] if len(bucket) == 1 else bucket
            else:
                table.pop(key, None)
                if mixed is not None:
                    mixed.pop(key, None)
        clone._mixed = mixed
        return clone

    def lookup(self, key: Any) -> Sequence[Row]:
        if key is None:
            return ()
        return self._table.get(key, ())

    def _probe_table(self) -> Dict[Any, Any]:
        return {
            key: bucket[0] if len(bucket) == 1 else bucket
            for key, bucket in self._table.items()
        }

    def __len__(self) -> int:
        return self._count


class SortedIndex(Index):
    """Binary-search index: rows sorted by key, point + range lookups.

    Keys must be mutually comparable (homogeneous column types); building
    over an unsortable column raises ``TypeError`` — use a
    :class:`HashIndex` there instead.  Range lookups bound the *first*
    index column; multi-column sorted indexes still support point lookups
    and ordered scans.
    """

    kind = "sorted"

    def _build(self) -> None:
        key_of = self.key_of
        entries = [
            (key, label, row)
            for label, row in zip(row_labels(self.relation), self.relation.rows)
            if (key := key_of(row)) is not None
        ]
        entries.sort(key=lambda e: e[0])
        self._keys: List[Any] = [k for k, _, _ in entries]
        #: The row's :func:`row_labels` label per entry — range results
        #: are restored to relation order so downstream operators keep
        #: their locality.  Ascending within a run of equal keys.
        self._ordinals: List[int] = [o for _, o, _ in entries]
        self._rows: List[Row] = [r for _, _, r in entries]
        #: First key column only, for range bisection on multi-column keys.
        self._first: List[Any] = (
            self._keys if self._single else [k[0] for k in self._keys]
        )

    def derived(self, relation, removed, removed_labels, appended, first_label) -> "SortedIndex":
        """O(log n) per row of the delta plus slice copies of the rest.

        A removed row's entry is found by bisecting its key, then its
        label within the run of equal keys; an appended row's place by
        bisecting its key.  The probe table of :meth:`mixed_table`, once
        built, is copied shallowly and re-read from the new run of each
        key the delta touches.  Raises ``TypeError`` when an appended key
        does not compare against the existing keys (mixed types); the
        caller falls back to a deferred rebuild in that case, like the
        eager auto-index policy does.
        """
        clone = self._derived_shell(relation)
        key_of = clone.key_of
        keys = self._keys
        columns = [keys, self._ordinals, self._rows]
        if not self._single:
            columns.append(self._first)
        if removed:
            gone = []
            for row, label in zip(removed, removed_labels):
                key = key_of(row)
                if key is not None:
                    low = bisect_left(keys, key)
                    gone.append(
                        bisect_left(self._ordinals, label, low, bisect_right(keys, key, low))
                    )
            gone.sort()
            columns = [_without(column, gone) for column in columns]
            keys = columns[0]
        if appended:
            fresh = sorted(
                (
                    (key, first_label + offset, row)
                    for offset, row in enumerate(appended)
                    if (key := key_of(row)) is not None
                ),
                key=lambda e: e[0],
            )
            if fresh:
                # after every equal key: labels stay ascending within the run
                places = [bisect_right(keys, key) for key, _, _ in fresh]
                values = list(zip(*fresh))
                if not self._single:
                    values.append(tuple(key[0] for key in values[0]))
                columns = [
                    _with(column, places, new) for column, new in zip(columns, values)
                ]
        clone._keys, clone._ordinals, clone._rows = columns[:3]
        clone._first = columns[0] if self._single else columns[3]
        mixed = clone._mixed = self._mixed
        if mixed is not None and (removed or appended):
            mixed = clone._mixed = dict(mixed)
            keys, rows = clone._keys, clone._rows
            for key in {key_of(row) for row in (*removed, *appended)} - {None}:
                low = bisect_left(keys, key)
                high = bisect_right(keys, key, low)
                if high == low:
                    mixed.pop(key, None)
                else:
                    mixed[key] = rows[low] if high - low == 1 else rows[low:high]
        return clone

    def lookup(self, key: Any) -> Sequence[Row]:
        if key is None:
            return ()
        try:
            lo = bisect_left(self._keys, key)
            hi = bisect_right(self._keys, key)
        except TypeError:
            # a type-mismatched key can never compare equal to any stored
            # key: equality never raises in the executor, so neither do we
            return ()
        return self._rows[lo:hi]

    def range_positions(
        self,
        lower: Any = None,
        upper: Any = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> List[int]:
        """Ascending positions in ``rows`` of the rows whose first key
        column lies within the bounds (``None``: open).  Relation order,
        not key order, keeps downstream probes local.  The sorted labels
        are the positions until a delete parts them (:func:`row_labels`),
        and are found in the relation's labels by bisection after it."""
        first = self._first
        lo = 0
        hi = len(first)
        if lower is not None:
            lo = bisect_left(first, lower) if lower_inclusive else bisect_right(first, lower)
        if upper is not None:
            hi = bisect_right(first, upper) if upper_inclusive else bisect_left(first, upper)
        if hi <= lo:
            return []
        labels = sorted(self._ordinals[lo:hi])
        relation_labels = row_labels(self.relation)
        if isinstance(relation_labels, range):
            return labels
        return list(map(partial(bisect_left, relation_labels), labels))

    def range(
        self,
        lower: Any = None,
        upper: Any = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> Sequence[Row]:
        """The rows at :meth:`range_positions`, in relation order."""
        positions = self.range_positions(lower, upper, lower_inclusive, upper_inclusive)
        if not positions:
            return []
        rows = self.relation.rows
        if len(positions) == 1:  # a one-index itemgetter returns the bare row
            return [rows[positions[0]]]
        return list(itemgetter(*positions)(rows))

    def ordered(self) -> Sequence[Row]:
        """All indexed rows in ascending key order."""
        return self._rows

    def _probe_table(self) -> Dict[Any, Any]:
        # a run of equal keys is in relation order: so are its buckets
        return probe_table(zip(self._keys, self._rows))

    def __len__(self) -> int:
        return len(self._rows)


_KIND_CLASSES = {"hash": HashIndex, "sorted": SortedIndex}


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


# ----------------------------------------------------------------------
# write-path maintenance: carry access paths onto a derived relation
# ----------------------------------------------------------------------
def row_labels(relation: Relation) -> Sequence[int]:
    """One label per live row, ascending in ``rows`` order, never renumbered.

    Sorted indexes sort range results back into relation order by these.
    A row keeps its label through every write-path derivation (deleting
    other rows leaves gaps, compaction keeps them, an append continues
    past the last live label), which is what lets a delete drop index
    entries without touching the rest.  Until a delete makes the two
    differ, a row's label is its position and no list is kept.
    """
    labels = getattr(relation, "_labels", None)
    return range(len(relation.rows)) if labels is None else labels


def _with(sequence: Sequence[Any], places: Sequence[int], values: Sequence[Any]) -> List[Any]:
    """``sequence`` with ``values[i]`` put in before its position
    ``places[i]`` (ascending), by slice copies alone."""
    out: List[Any] = []
    start = 0
    for place, value in zip(places, values):
        out.extend(sequence[start:place])
        out.append(value)
        start = place
    out.extend(sequence[start:])
    return out


def carry_indexes(
    old: Relation, new: Relation, removed: Sequence[int], appended: Sequence[Row]
) -> None:
    """Carry ``old``'s access paths onto ``new``, derived from it by a write.

    ``new`` is ``old`` minus the rows at its live positions ``removed``
    plus ``appended`` at the end (:meth:`Relation._derive`).  Built
    indexes follow the delta (:meth:`Index.derived`), never a rebuild
    over unchanged rows; still-pending (deferred) definitions are copied
    over as pending.  An index whose new keys do not merge (``TypeError``)
    degrades to a deferred rebuild of just that index.

    ``new`` is a fresh version with no planning facts memoized yet: the
    definitions it carries are the ones a cached plan over ``old`` was
    built on, so the first lookup over ``new`` finds them unchanged and
    that plan runs over it.
    """
    with _ATTACH_LOCK:
        built = list(getattr(old, "_indexes", None) or ())
        pending = list(getattr(old, "_pending_indexes", None) or ())
    labels = row_labels(old)
    removed_labels = [labels[p] for p in removed]
    first_label = len(old.rows)
    # positions stop being labels at the first delete under a sorted index
    if removed and (
        isinstance(labels, list) or any(index.kind == "sorted" for index in built)
    ):
        labels = _without(labels, removed)
    if isinstance(labels, list):
        first_label = labels[-1] + 1 if labels else 0
        if appended:
            labels = labels + list(range(first_label, first_label + len(appended)))
        new._labels = labels
    removed_rows = [old.rows[p] for p in removed]
    derived: List[Index] = []
    for index in built:
        try:
            derived.append(
                index.derived(new, removed_rows, removed_labels, appended, first_label)
            )
        except (TypeError, NotImplementedError):
            pending.append((index.columns, index.kind, index.name))
    if derived:
        new._indexes = derived
    if pending:
        new._pending_indexes = pending
