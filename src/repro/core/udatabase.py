"""U-relational databases: world table + vertical partitions per relation.

A :class:`UDatabase` holds, for every logical relation ``R[A1..An]``, a list
of U-relations whose value columns jointly cover ``A1..An`` (Definition 2.2
— overlap is allowed), plus the shared world table ``W``.

This module also implements the *semantics*: instantiating the possible
world of a total valuation (Section 2), enumerating all worlds (the
brute-force oracle the test suite checks query translation against), and
the validity condition (no contradictory values for a tuple field in any
world).

**Where index facts live.**  A partition is an ordinary relation and an
index on it an ordinary index: the tuple of its definitions is listed on
the partition's relation version and nowhere else.  The planner builds
handles from it (``indexes_on``), every write-path derivation hands the
same tuple to the successor with its parent's handles (the index
structures themselves live on the partition's immutable segments, which
the successor shares), persistence saves it from there.  Index DDL
(:meth:`UDatabase.create_index` / :meth:`UDatabase.drop_index`) and every
derivation of a successor happen under ``_write_lock``, so a definition
lands on the live partition or not at all.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..relational.index import (
    Index,
    IndexDef,
    drop_index_def,
    ensure_index,
    index_def,
    index_defs_on,
    indexes_on,
    set_index_defs,
)
from ..relational.relation import Relation
from ..relational.schema import Schema
from .descriptor import Descriptor
from .urelation import URelation, tid_column
from .worldtable import WorldTable

__all__ = ["UDatabase", "Catalog", "LogicalSchema", "CompactionResult"]


class CompactionResult(NamedTuple):
    """What one :meth:`UDatabase.compact` run (a ``VACUUM``) accomplished.

    ``relations`` names the logical relations that had at least one
    partition rewritten; ``partitions`` counts rewritten partitions,
    ``segments_before`` how many segments they held going in (each comes
    out holding one), and ``rows_dropped`` how many dead rows the rewrite
    reclaimed.  An all-compact database yields the zero result.
    """

    relations: Tuple[str, ...]
    partitions: int
    segments_before: int
    rows_dropped: int
    seconds: float

    @property
    def changed(self) -> bool:
        return self.partitions > 0


class LogicalSchema:
    """The logical (uncertain) schema of one relation: name + attributes."""

    def __init__(self, name: str, attributes: Sequence[str]):
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


def partition_label(name: str, part: URelation) -> str:
    """The paper's name for a vertical partition: ``u_<rel>_<attrs>`` — what
    index DDL addresses, plans scan it under and persistence names the
    partition's directory."""
    return f"u_{name}_" + "_".join(part.value_names)


def _index_policy(name: str, part: URelation) -> Tuple[IndexDef, ...]:
    """The auto-indexing policy for one vertical partition, as definitions.

    Mirrors the paper's experiment setup: a hash index on the tuple-id
    column (the partition-merge equijoins of the Figure 4 translation
    probe it), plus a sorted index per value column (selections of the
    experiment queries become point/range index scans).  Built on first
    planner access (``indexes_on``) — write-only pipelines never pay; a
    value column whose keys do not sort stays sequential-scan-only while
    they do not.
    """
    label = partition_label(name, part)
    relation = part.relation
    return (
        index_def(relation, [tid_column(name)], "hash", f"idx_{label}_tid"),
        *(index_def(relation, [c], "sorted", f"idx_{label}_{c}") for c in part.value_names),
    )


class Catalog(NamedTuple):
    """One published state of a database's relations: the value a query reads.

    Immutable and replaced by reference: every write publishes a new one
    with a single assignment, so whoever reads ``udb.catalog()`` once
    sees either all of a COMMIT or none of it.  ``versions`` is the
    label -> relation map a U-query plan's leaves resolve their
    partitions through (see :mod:`repro.relational.plancache`);
    ``labels`` holds the partitions themselves under the same labels.
    ``world_table`` is the database's (append-only: an older catalog
    answers the same over it) or a transaction's copy holding the
    variables it minted (:mod:`repro.core.txn`).  A catalog equals only
    itself: request coalescing keys on its identity.
    """

    schemas: Mapping[str, LogicalSchema]
    #: logical relation name -> its vertical partitions
    relations: Mapping[str, Tuple[URelation, ...]]
    #: ``u_<rel>_<attrs>`` label -> partition
    labels: Mapping[str, URelation]
    #: ``u_<rel>_<attrs>`` label -> the partition's current relation version
    versions: Mapping[str, Relation]
    world_table: WorldTable

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def logical_schema(self, name: str) -> LogicalSchema:
        try:
            return self.schemas[name]
        except KeyError:
            raise KeyError(
                f"unknown logical relation {name!r}; have {sorted(self.schemas)}"
            ) from None

    def partitions(self, name: str) -> List[URelation]:
        self.logical_schema(name)
        return list(self.relations[name])

    def replaced(
        self,
        relations: Mapping[str, Sequence[URelation]],
        schemas: Mapping[str, LogicalSchema],
    ) -> "Catalog":
        """This catalog with ``relations`` and ``schemas`` swapped in."""
        merged = {**self.relations, **{n: tuple(p) for n, p in relations.items()}}
        labels: Dict[str, URelation] = {}
        for name, parts in sorted(merged.items()):
            for part in parts:
                # of partitions over the same attributes, the first: the one
                # translation's cover picks, so a plan's slot resolves to it
                labels.setdefault(partition_label(name, part), part)
        return Catalog(
            {**self.schemas, **schemas},
            merged,
            labels,
            {label: part.relation for label, part in labels.items()},
            self.world_table,
        )


class UDatabase:
    """A U-relational database (Definition 2.2)."""

    def __init__(self, world_table: Optional[WorldTable] = None):
        self.world_table = world_table or WorldTable()
        #: The published :class:`Catalog`: replaced, never mutated.
        self._catalog = Catalog({}, {}, {}, {}, self.world_table)
        #: Publish counter behind :attr:`catalog_version`: bumped by every
        #: catalog swap (:meth:`publish`, :meth:`add_relation`).
        self._catalog_version = 0
        #: Statement maps (:func:`repro.core.prepared.text_statement`).
        #: ``execute_sql`` remembers its statements by exact SQL text, so a
        #: re-issued text skips parsing, and ``repro.sql.prepare`` its own
        #: (literals kept) likewise.  ``_statement_shapes`` holds one
        #: statement per ad-hoc query shape, shared by ``execute_sql`` and
        #: every session: texts that differ only in equality literals run
        #: one planned statement whichever connection sends them.
        self._statements: Dict[str, Any] = {}
        self._prepared_statements: Dict[str, Any] = {}
        self._statement_shapes: Dict[tuple, Any] = {}
        #: Next tuple id to hand out per relation, computed lazily from
        #: the partitions' tid columns on first INSERT and invalidated on
        #: :meth:`add_relation` (external replacement may renumber).
        self._next_tid: Dict[str, int] = {}
        #: Serializes writes: the write path is read-derive-publish over
        #: the catalog, so concurrent writers must not interleave (readers
        #: never take this — they work off immutable relation objects).
        self._write_lock = threading.Lock()

    @property
    def catalog_version(self) -> int:
        """Monotone catalog version covering the published relations and
        the world table.

        Bumps on every publish (:meth:`add_relation`, a write, a COMMIT, a
        VACUUM) and on world-table growth (its own version counter is a
        component): the observable that moves whenever an answer may.
        Index DDL, lazy index builds and
        statistics refreshes move no answer and leave it alone; a cached
        plan they affect re-plans at its next lookup, because it checks
        the planning facts it was built on.
        """
        return self._catalog_version + self.world_table.version

    def catalog(self) -> Catalog:
        """The published :class:`Catalog`: read it once, use it throughout."""
        return self._catalog

    def publish(self, relations: Mapping[str, Sequence[URelation]]) -> None:
        """Swap several relations' partition sets in with ONE catalog swap.

        The write path's only publish (:func:`repro.core.dml.publish`,
        which a statement and a transaction's COMMIT go through, and a
        VACUUM): a reader that reads the catalog before the swap sees
        none of ``relations``' new partitions, one that reads it after
        sees all of them.  Nothing is evicted: a cached plan names the partitions
        it reads and checks the facts it was built on when it runs next.
        """
        catalog = self._catalog
        for name, partitions in relations.items():
            old = catalog.partitions(name)
            if len(old) != len(partitions):
                raise ValueError(
                    f"replacement for {name!r} must keep its {len(old)} partitions"
                )
        self._catalog = catalog.replaced(relations, {})
        self._catalog_version += 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_relation(
        self,
        name: str,
        attributes: Sequence[str],
        partitions: Iterable[URelation],
    ) -> None:
        """Register a logical relation with its vertical partitions.

        The partitions' value columns must jointly cover ``attributes``.
        Each partition lists the auto-indexing policy's definitions
        (:func:`_index_policy`) beside those it lists already, and builds
        nothing: the first planner access builds them, so write-only
        pipelines (conversion, save) skip the cost entirely; callers that
        need deterministic first-query latency force the builds with
        :meth:`build_indexes` (benchmark setup does, after generation).
        """
        partitions = list(partitions)
        covered = set()
        for part in partitions:
            if list(part.tid_names) != [tid_column(name)]:
                raise ValueError(
                    f"partition of {name!r} must have tid column {tid_column(name)!r}, "
                    f"got {list(part.tid_names)}"
                )
            covered.update(part.value_names)
        missing = set(attributes) - covered
        if missing:
            raise ValueError(f"partitions of {name!r} do not cover attributes {sorted(missing)}")
        extra = covered - set(attributes)
        if extra:
            raise ValueError(f"partitions of {name!r} carry unknown attributes {sorted(extra)}")
        self._catalog = self._catalog.replaced(
            {name: partitions}, {name: LogicalSchema(name, attributes)}
        )
        self._next_tid.pop(name, None)
        self._catalog_version += 1
        for part in partitions:
            listed = index_defs_on(part.relation)
            names = {definition.name for definition in listed}
            added = [d for d in _index_policy(name, part) if d.name not in names]
            set_index_defs(part.relation, listed + tuple(added))

    # ------------------------------------------------------------------
    # the write path (see :mod:`repro.core.dml`)
    # ------------------------------------------------------------------
    def allocate_tids(self, name: str, count: int) -> int:
        """Reserve ``count`` fresh tuple ids; returns the first.

        The high-water mark is read once from the partitions' integer tid
        columns (non-integer tids are ignored) and advanced in memory
        afterwards, so repeated inserts don't rescan.
        """
        self.logical_schema(name)
        next_tid = self._next_tid.get(name)
        if next_tid is None:
            highest = 0
            tid_name = tid_column(name)
            for part in self._catalog.relations[name]:
                position = part.relation.schema.resolve(tid_name)
                for row in part.relation:
                    tid = row[position]
                    if isinstance(tid, int) and tid > highest:
                        highest = tid
            next_tid = highest + 1
        self._next_tid[name] = next_tid + count
        return next_tid

    def insert(self, name: str, *rows: Sequence[Any]):
        """``INSERT INTO name VALUES rows...``; see :mod:`repro.core.dml`."""
        from .dml import Insert, execute_dml

        return execute_dml(Insert(name, rows), self)

    def copy_rows(self, name: str, rows: Iterable[Sequence[Any]]):
        """Bulk-ingest many logical tuples as ONE appended segment.

        The streaming-ingest funnel: semantically identical to inserting
        every row of ``rows`` one statement at a time, but the whole batch
        builds a single segment per partition and publishes with a single
        :meth:`publish` swap: one new version per touched partition for
        the whole batch, not one per row.  Metered under the ``copy`` DML
        op.  See :func:`repro.core.dml.copy_rows`.
        """
        from .dml import copy_rows

        return copy_rows(self, name, rows)

    def compact(self, table: Optional[str] = None) -> CompactionResult:
        """Rewrite segment stacks into single base segments (``VACUUM``).

        For every partition of ``table`` (or of every relation when
        ``None``) that holds more than one segment or any deleted rows,
        build a replacement relation whose live rows sit in one fresh base
        segment (:meth:`~repro.relational.relation.Relation.compacted`)
        and swap them all in with one :meth:`publish` under the write
        lock.  Readers and pinned snapshots keep the old immutable
        relation objects; the swap is indistinguishable from any other
        write.  The new base reuses the old base's slots, dead ones refilled
        by the rows written since, and holds whatever the old base had
        built (column vectors, counts, index structures, probe tables),
        edited at the slots it touched, so its cost follows the rows
        written and deleted since the last compaction and the reads after
        it build nothing; a compacted partition's rows come in slot order.
        Index definitions and statistics carry over as they are, and
        so does a handle for each definition that had one.  The world
        table is never touched.

        Emits ``compactions_total`` (per rewritten relation) and observes
        ``compaction_seconds``.
        """
        from ..obs import counter, histogram

        if table is not None:
            self.logical_schema(table)  # unknown table: raise before locking
        started = time.perf_counter()
        names = [table] if table is not None else self.relation_names()
        compacted: List[str] = []
        partitions_rewritten = 0
        segments_before = 0
        rows_dropped = 0
        bytes_reclaimed = 0
        with self._write_lock:
            rewrites: Dict[str, List[URelation]] = {}
            for name in names:
                parts = self.partitions(name)
                replacements: List[URelation] = []
                changed = False
                for part in parts:
                    relation = part.relation
                    rewritten = relation.compacted()
                    if rewritten is relation:
                        replacements.append(part)
                        continue
                    segments_before += len(relation.segments())
                    dropped_here = relation.deleted_count()
                    rows_dropped += dropped_here
                    # pointer-slot estimate of the reclaimed tuples (CPython
                    # tuple header + one slot per column); values are shared
                    # so their own sizes are not reclaimed by compaction
                    bytes_reclaimed += dropped_here * (
                        56 + 8 * len(relation.schema)
                    )
                    replacements.append(
                        URelation(
                            rewritten, part.d_width, part.tid_names, part.value_names
                        )
                    )
                    partitions_rewritten += 1
                    changed = True
                if changed:
                    rewrites[name] = replacements
                    compacted.append(name)
            if rewrites:
                self.publish(rewrites)
        if rewrites:
            # the new bases are a few very large containers (row lists,
            # tables, sorted arrays), too few to set off a young collection
            # themselves: the next one, in whichever request allocates
            # next, would walk every slot of them.  Walk them here, in the
            # VACUUM that made them.
            gc.collect(0)
        seconds = time.perf_counter() - started
        if compacted:
            total = counter(
                "compactions_total", "Partition-stack rewrites, by relation"
            )
            for name in compacted:
                total.inc(relation=name)
            histogram(
                "compaction_seconds", "Wall seconds per compaction run"
            ).observe(seconds)
            counter(
                "compaction_rows_reclaimed_total",
                "Deleted rows dropped by compaction",
            ).inc(rows_dropped)
            counter(
                "compaction_bytes_reclaimed_total",
                "Estimated bytes reclaimed by compaction (tuple slots)",
            ).inc(bytes_reclaimed)
        return CompactionResult(
            tuple(compacted), partitions_rewritten, segments_before, rows_dropped,
            seconds,
        )

    @classmethod
    def from_certain(
        cls, relations: Mapping[str, Relation], world_table: Optional[WorldTable] = None
    ) -> "UDatabase":
        """Wrap certain one-world relations as trivial U-relations."""
        db = cls(world_table)
        for name, relation in relations.items():
            attrs = relation.schema.names
            partition = URelation.from_certain_rows(relation.rows, tid_column(name), attrs)
            db.add_relation(name, attrs, [partition])
        return db

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def relation_names(self) -> List[str]:
        return sorted(self._catalog.schemas)

    def logical_schema(self, name: str) -> LogicalSchema:
        return self._catalog.logical_schema(name)

    def partitions(self, name: str) -> List[URelation]:
        return self._catalog.partitions(name)

    def segment_health(self, publish: bool = True) -> Dict[str, Dict[str, Any]]:
        """Per-partition write-path health, optionally published as gauges.

        For every vertical partition (keyed ``relation/part<i>``):
        ``segment_count`` (appended segments accumulated since the last
        base rewrite), ``live_rows``, ``deleted_rows``, and
        ``deleted_ratio`` (dead fraction of all appended rows): what an
        operator reads to decide when to ``VACUUM``.  With
        ``publish=True`` (default) each value is also set on the
        ``segment_*`` gauges, labeled by partition, so the metrics
        snapshot carries the write path's state.

        Reading is cheap: it counts segments and dead positions, and
        copies no row.
        """
        from ..obs import gauge

        out: Dict[str, Dict[str, Any]] = {}
        for name, parts in sorted(self._catalog.relations.items()):
            for i, part in enumerate(parts):
                relation = part.relation
                live = len(relation)
                deleted = relation.deleted_count()
                total = live + deleted
                key = f"{name}/part{i}"
                out[key] = {
                    "segment_count": len(relation.segments()),
                    "live_rows": live,
                    "deleted_rows": deleted,
                    "deleted_ratio": (deleted / total) if total else 0.0,
                }
        if publish:
            count_gauge = gauge(
                "segment_count", "Segments per partition (1 = compacted base)"
            )
            live_gauge = gauge("segment_live_rows", "Live rows per partition")
            ratio_gauge = gauge(
                "segment_deleted_ratio", "Dead fraction of appended rows"
            )
            deleted_gauge = gauge(
                "segment_deleted_rows",
                "Delete-vector density: dead rows per partition",
            )
            for key, health in out.items():
                count_gauge.set(health["segment_count"], partition=key)
                live_gauge.set(health["live_rows"], partition=key)
                ratio_gauge.set(health["deleted_ratio"], partition=key)
                deleted_gauge.set(health["deleted_rows"], partition=key)
        return out

    def build_indexes(self) -> None:
        """Build the handle of every definition of every partition now,
        as a first planner access would.

        For callers that need deterministic query latency — benchmark
        setup calls this after generation so measured times never include
        one-off index builds.
        """
        for part in self._catalog.labels.values():
            indexes_on(part.relation)

    def prepare(self, sql: str):
        """Prepare a SQL statement (with optional ``$n`` parameter slots).

        Returns a :class:`~repro.core.prepared.PreparedQuery`; repeated
        ``run(...)`` calls — with any parameter bindings — reuse one
        cached physical plan and go executor-only.  Statements are cached
        by text, so preparing the same SQL twice returns the same object.
        """
        from ..sql import prepare as prepare_sql

        return prepare_sql(sql, self)

    def session(self):
        """Open a standalone :class:`~repro.server.session.Session` here.

        The session owns its prepared-statement names (the statements
        and their plans are this database's, shared by all its sessions;
        ``$n`` values belong to each execution), offers optimistic
        snapshot reads, and is the only holder of a transaction:
        ``s = udb.session(); s.execute("begin")`` (``execute_sql``
        autocommits every statement).  Statements execute inline on the
        calling thread; for pooled execution with admission control, open
        sessions through a :class:`~repro.server.server.QueryServer`
        instead.
        """
        from ..server.session import Session

        return Session(self)

    def serve(self, **knobs):
        """A :class:`~repro.server.server.QueryServer` over this database.

        Keyword arguments are the server's (``workers``, ``policy``,
        ``coalesce``).  Its statements run through its sessions
        (``server.session()``).
        """
        from ..server import QueryServer

        return QueryServer(self, **knobs)

    def world_count(self) -> int:
        return self.world_table.world_count()

    def total_representation_rows(self) -> int:
        """Rows across all U-relations plus the world table."""
        total = len(self.world_table.relation())
        total += sum(len(p) for p in self._catalog.labels.values())
        return total

    # ------------------------------------------------------------------
    # index DDL: the one path (see the module docstring)
    # ------------------------------------------------------------------
    def index_defs(self, table: Optional[str] = None) -> List[Tuple[str, str, tuple, str]]:
        """``(table, name, columns, kind)`` of every index definition, built
        or not (of partition ``table`` only, if given); builds nothing."""
        return sorted(
            (label, definition.name, definition.columns, definition.kind)
            for label, relation in self._catalog.versions.items()
            if table is None or label == table
            for definition in index_defs_on(relation)
        )

    def create_index(
        self, name: str, table: str, columns: Sequence[str], kind: str = "hash"
    ) -> Index:
        """``CREATE INDEX name ON table (columns) USING kind``.

        ``table`` is a partition's ``u_<rel>_<attrs>`` label; the index is
        built over the live partition relation, under the write lock, and
        nothing else is built (a listed definition of the same name and
        shape is the one being built).  Index names are unique across
        the database: re-issuing an identical definition returns the
        existing index, a different definition under a taken name is a
        ``KeyError``.
        """
        if table == "w":
            raise ValueError("cannot index w: no plan scans a world-table snapshot")
        with self._write_lock:
            labelled = self._catalog.versions
            if table not in labelled:
                raise KeyError(f"relation {table!r} not found; have {sorted(labelled)}")
            relation = labelled[table]
            names = relation.schema.names
            columns = tuple(names[relation.schema.resolve(c)] for c in columns)
            for defined in self.index_defs():
                if defined[1] == name and defined != (table, name, columns, kind):
                    raise KeyError(f"index {name!r} already exists")
            return ensure_index(relation, columns, kind=kind, name=name)

    def drop_index(self, name: str) -> None:
        """``DROP INDEX name``: drop the definition from the live partition
        that lists it, built or not."""
        with self._write_lock:
            for relation in self._catalog.versions.values():
                if drop_index_def(relation, name):
                    return
            have = sorted(defined[1] for defined in self.index_defs())
            raise KeyError(f"index {name!r} not found; have {have}")

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}[{len(parts)} parts]"
            for name, parts in sorted(self._catalog.relations.items())
        )
        return f"UDatabase({rels}; {self.world_table!r})"

    # ------------------------------------------------------------------
    # semantics: possible worlds
    # ------------------------------------------------------------------
    def instantiate(self, valuation: Mapping[str, Any], name: str) -> Relation:
        """The instance of logical relation ``name`` in one world.

        Per Section 2: for every partition tuple whose descriptor the
        valuation extends, assign its values to the fields of the tuple id;
        tuples left partial are removed; the world's relation is a set.
        """
        schema = self.logical_schema(name)
        attr_pos = {a: i for i, a in enumerate(schema.attributes)}
        fields: Dict[Any, List[Any]] = {}
        assigned: Dict[Any, set] = {}
        for part in self._catalog.relations[name]:
            for descriptor, tids, values in part:
                if not descriptor.extended_by(valuation):
                    continue
                (tid,) = tids
                row = fields.setdefault(tid, [None] * len(schema.attributes))
                got = assigned.setdefault(tid, set())
                for attr, value in zip(part.value_names, values):
                    pos = attr_pos[attr]
                    if attr in got and row[pos] != value:
                        raise ValueError(
                            f"invalid U-database: field {name}.{attr} of tuple {tid!r} "
                            f"takes both {row[pos]!r} and {value!r} in one world"
                        )
                    row[pos] = value
                    got.add(attr)
        complete = [
            tuple(row)
            for tid, row in fields.items()
            if len(assigned[tid]) == len(schema.attributes)
        ]
        return Relation(Schema(schema.attributes), complete).distinct()

    def worlds(self) -> Iterator[Tuple[Dict[str, Any], Dict[str, Relation]]]:
        """Enumerate (valuation, {relation name -> instance}) for all worlds.

        Exponential — this is the brute-force oracle for tests and for tiny
        illustrative examples, not a query processing path.
        """
        for valuation in self.world_table.valuations():
            instances = {
                name: self.instantiate(valuation, name) for name in self.relation_names()
            }
            yield valuation, instances

    def world_relations(self, valuation: Mapping[str, Any]) -> Dict[str, Relation]:
        """All relation instances of one world."""
        return {name: self.instantiate(valuation, name) for name in self.relation_names()}

    # ------------------------------------------------------------------
    # validity (Definition 2.2 / Example 2.3)
    # ------------------------------------------------------------------
    def is_valid(self) -> bool:
        """Check that no world assigns two values to the same tuple field.

        Pairwise check over partitions sharing value attributes: tuples with
        the same tuple id and consistent descriptors must agree on shared
        attributes.
        """
        for name, parts in self._catalog.relations.items():
            for i, left in enumerate(parts):
                for right in parts[i:]:
                    shared = set(left.value_names) & set(right.value_names)
                    if not shared:
                        continue
                    if not _partitions_agree(left, right, shared, same=left is right):
                        return False
        return True


def _partitions_agree(
    left: URelation, right: URelation, shared: set, same: bool
) -> bool:
    left_pos = [left.value_names.index(a) for a in sorted(shared)]
    right_pos = [right.value_names.index(a) for a in sorted(shared)]
    by_tid: Dict[Any, List[Tuple[Descriptor, Tuple[Any, ...]]]] = {}
    for descriptor, tids, values in right:
        by_tid.setdefault(tids[0], []).append(
            (descriptor, tuple(values[i] for i in right_pos))
        )
    for descriptor, tids, values in left:
        mine = tuple(values[i] for i in left_pos)
        for other_descriptor, other_values in by_tid.get(tids[0], ()):
            if same and descriptor == other_descriptor and mine == other_values:
                continue  # the same physical tuple
            if descriptor.consistent_with(other_descriptor) and mine != other_values:
                return False
    return True
