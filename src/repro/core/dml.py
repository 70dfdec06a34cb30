"""DML over U-relational databases: INSERT / UPDATE / DELETE.

The write path is log-structured, mirroring the paper's representation
invariants: U-relations are *plain relations*, and relations here are
immutable values that plans embed by object identity.  A DML statement
therefore never mutates a partition in place — it derives a **new**
:class:`~repro.relational.relation.Relation` composed of the old one's
immutable segments plus, per statement,

* an appended segment (INSERT, and the rewritten tuples of UPDATE), and/or
* a widened delete vector (DELETE, and the superseded tuples of UPDATE),

then swaps the partition set in the catalog
(:meth:`UDatabase.replace_partitions`).  The derivation itself
(:meth:`Relation.with_appended` / :meth:`Relation.with_deleted`) carries
whatever the old relation had built — indexes, column vectors,
statistics — onto the new one along the statement's delta, so a write
costs Python work in proportion to the rows it writes, not to the
partition, and the first read after it rebuilds nothing.  In-flight
plans keep reading the old relation objects untouched; a session
snapshot, which holds those objects, sees that the catalog no longer does
and raises ``SnapshotChanged``; and every swap goes through the same
``bump_relation`` epochs index DDL uses, which evicts exactly the cached
plans that scanned the replaced partitions.

Uncertain inserts follow Section 2's "new variable with a fresh domain"
construction: a value cell listing k alternatives mints one fresh
world-table variable with domain ``0..k-1`` and expands, inside each
vertical partition covering the attribute, into k tuples whose
ws-descriptors assign the variable — so the insert adds ``k`` local
worlds multiplying the world count, at ``k`` representation tuples.

UPDATE/DELETE match tuples under *possible-worlds* semantics: a tuple id
is affected when its WHERE condition holds in at least one world (the
matching runs as an ordinary translated query, so it is planned, cached,
and indexed like any read).  UPDATE rewrites every alternative of an
affected tuple in the partitions covering the SET columns, keeping
descriptors and tuple ids; DELETE removes the tuple from every partition
(all its alternatives, in all worlds).
"""

from __future__ import annotations

import functools
from itertools import compress
from operator import itemgetter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs import counter as _counter
from ..relational.expressions import Expression, Param, slot_count
from .descriptor import Descriptor, encode_descriptor
from .query import Rel, USelect
from .urelation import URelation, tid_column

__all__ = [
    "UncertainValue",
    "DMLResult",
    "Insert",
    "Update",
    "Delete",
    "insert_rows",
    "copy_rows",
    "update_where",
    "delete_where",
    "execute_dml",
    "dml_slot_count",
]


class UncertainValue:
    """A value cell listing mutually exclusive alternatives.

    ``INSERT INTO r VALUES (1, {'Tank','Transport'})`` parses the braced
    list into one of these; executing the insert mints a fresh world-table
    variable whose domain indexes the alternatives.
    """

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Sequence[Any]):
        alternatives = tuple(alternatives)
        if not alternatives:
            raise ValueError("an uncertain value needs at least one alternative")
        if len(set(alternatives)) != len(alternatives):
            raise ValueError(
                f"duplicate alternatives in uncertain value: {list(alternatives)}"
            )
        self.alternatives = alternatives

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(a) for a in self.alternatives) + "}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UncertainValue)
            and self.alternatives == other.alternatives
        )

    def __hash__(self) -> int:
        return hash(self.alternatives)


class Insert(NamedTuple):
    """Parsed ``INSERT INTO table VALUES (...), (...)``.

    ``rows`` holds plain Python values, :class:`Param` slots, and
    :class:`UncertainValue` alternative lists, in logical-attribute order.
    """

    table: str
    rows: Tuple[Tuple[Any, ...], ...]


class Update(NamedTuple):
    """Parsed ``UPDATE table SET col = cell, ... [WHERE condition]``."""

    table: str
    assignments: Tuple[Tuple[str, Any], ...]
    condition: Optional[Expression] = None


class Delete(NamedTuple):
    """Parsed ``DELETE FROM table [WHERE condition]``."""

    table: str
    condition: Optional[Expression] = None


class DMLResult(NamedTuple):
    """Outcome of one DML statement.

    ``count`` is the number of *logical tuples* inserted / updated /
    deleted; ``variables`` names the world-table variables the statement
    minted (uncertain inserts only).
    """

    statement: str
    count: int
    variables: Tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"{self.statement.upper()} {self.count}"
        if self.variables:
            text += f" (+{len(self.variables)} variables)"
        return text


def _resolve(value: Any) -> Any:
    """Resolve a parser-produced value cell: ``$n`` slots read the
    executing frame."""
    if isinstance(value, Param):
        return value.value
    return value


def _counted(fn):
    """Meter a DML funnel function from its :class:`DMLResult`.

    Every write — SQL DML, prepared DML, and the programmatic
    ``udb.insert`` — exits through one of the three decorated funnels, so
    ``dml_statements_total{op}`` / ``dml_rows_total{op}`` count all of
    them exactly once.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> DMLResult:
        result = fn(*args, **kwargs)
        _counter("dml_statements_total", "DML statements executed by op").inc(
            op=result.statement
        )
        if result.count:
            _counter("dml_rows_total", "Logical tuples written by op").inc(
                result.count, op=result.statement
            )
        if result.variables:
            _counter(
                "dml_variables_minted_total",
                "World-table variables minted by uncertain inserts",
            ).inc(len(result.variables))
        return result

    return wrapper


def execute_dml(statement, udb) -> DMLResult:
    """Dispatch a parsed DML statement record to its executor.

    Holds the database's write lock across the whole statement: the write
    path is read-derive-swap over the partition lists, and two concurrent
    writers interleaving would lose one's appends.  Readers never wait —
    they execute against the immutable relation objects a plan embedded.
    """
    with udb._write_lock:
        if isinstance(statement, Insert):
            return insert_rows(udb, statement.table, statement.rows)
        if isinstance(statement, Update):
            return update_where(
                udb, statement.table, statement.assignments, statement.condition
            )
        if isinstance(statement, Delete):
            return delete_where(udb, statement.table, statement.condition)
    raise TypeError(f"not a DML statement: {type(statement).__name__}")


def dml_slot_count(statement) -> int:
    """How many ``$n`` values a DML statement takes, VALUES/SET cells included."""
    if isinstance(statement, Insert):
        cells = [cell for row in statement.rows for cell in row]
    elif isinstance(statement, Update):
        cells = [value for _, value in statement.assignments] + [statement.condition]
    elif isinstance(statement, Delete):
        cells = [statement.condition]
    else:
        raise TypeError(f"not a DML statement: {type(statement).__name__}")
    return max(
        (slot_count(cell) for cell in cells if isinstance(cell, Expression)), default=0
    )


@_counted
def insert_rows(udb, name: str, value_rows: Sequence[Sequence[Any]]) -> DMLResult:
    """Insert logical tuples (possibly with uncertain cells) into ``name``.

    Each row must match the logical schema's arity.  Cells may be plain
    values, bound ``$n`` :class:`Param` slots, or :class:`UncertainValue`
    alternative lists.  Every vertical partition receives the sub-row for
    its value columns under one fresh shared tuple id, so inserted tuples
    are complete in every world that picks an alternative.

    A multi-row ``VALUES`` list is one batch: per partition the whole
    statement appends ONE segment and the publish is one
    ``replace_partitions`` swap — exactly one ``bump_relation`` per
    touched partition relation, however many rows the statement carries.
    """
    return _stage_insert(udb, name, value_rows, "insert")


@_counted
def copy_rows(udb, name: str, rows) -> DMLResult:
    """Bulk-ingest an iterable of logical tuples as one batch (``COPY``).

    The streaming sibling of a multi-row INSERT: ``rows`` (any iterable,
    materialized here) lands as one appended segment per partition and
    one catalog publish, metered under ``op="copy"``.  Rows follow INSERT
    cell rules, uncertain alternative lists included.
    """
    with udb._write_lock:
        return _stage_insert(udb, name, list(rows), "copy")


def _stage_insert(
    udb, name: str, value_rows: Sequence[Sequence[Any]], op: str
) -> DMLResult:
    """The shared INSERT/COPY body: stage one segment per partition, swap once."""
    schema = udb.logical_schema(name)
    parts = udb.partitions(name)
    if not value_rows:
        return DMLResult(op, 0)
    width = len(schema.attributes)
    tid = udb.allocate_tids(name, len(value_rows))
    minted: List[Tuple[str, UncertainValue]] = []
    appends: List[List[Tuple[Any, ...]]] = [[] for _ in parts]
    for row in value_rows:
        row = tuple(row)
        if len(row) != width:
            raise ValueError(
                f"INSERT into {name!r} expects {width} values "
                f"({', '.join(schema.attributes)}), got {len(row)}"
            )
        cells: Dict[str, Any] = {}
        variables: Dict[str, str] = {}
        for attr, value in zip(schema.attributes, row):
            value = _resolve(value)
            if isinstance(value, UncertainValue):
                var = udb.fresh_variable(name, tid, attr)
                minted.append((var, value))
                variables[attr] = var
            cells[attr] = value
        for slot, part in enumerate(parts):
            uncertain = [a for a in part.value_names if a in variables]
            if len(uncertain) > part.d_width:
                raise ValueError(
                    f"partition {name}[{', '.join(part.value_names)}] has "
                    f"descriptor width {part.d_width}, cannot hold "
                    f"{len(uncertain)} uncertain values per tuple"
                )
            combos: List[Dict[str, int]] = [{}]
            for attr in uncertain:
                alternatives = cells[attr].alternatives
                combos = [
                    dict(combo, **{attr: i})
                    for combo in combos
                    for i in range(len(alternatives))
                ]
            for combo in combos:
                descriptor = Descriptor(
                    {variables[attr]: i for attr, i in combo.items()}
                )
                values = tuple(
                    cells[attr].alternatives[combo[attr]]
                    if attr in combo
                    else cells[attr]
                    for attr in part.value_names
                )
                appends[slot].append(
                    encode_descriptor(descriptor, part.d_width) + (tid,) + values
                )
        tid += 1
    new_parts = []
    for part, rows in zip(parts, appends):
        relation = part.relation.with_appended(rows)
        new_parts.append(
            URelation(relation, part.d_width, part.tid_names, part.value_names)
        )
    # minting bumps the world table's version by exactly one per variable
    for var, value in minted:
        udb.world_table.add_variable(var, tuple(range(len(value.alternatives))))
    udb.replace_partitions(name, new_parts)
    return DMLResult(op, len(value_rows), tuple(var for var, _ in minted))


def _matching_tids(udb, name: str, condition: Optional[Expression]) -> set:
    """Tuple ids whose condition possibly holds (None matches everything)."""
    if condition is None:
        tids = set()
        tid_name = tid_column(name)
        for part in udb.partitions(name):
            position = part.relation.schema.resolve(tid_name)
            tids.update(row[position] for row in part.relation.rows)
        return tids
    from .translate import execute_keyed, query_cache_key

    query = USelect(Rel(name), condition)
    # keyed by the partition versions it reads: nothing evicts a plan over
    # a version superseded inside a transaction (it is private), and the
    # next staged statement of the same shape must not be served it
    key = query_cache_key(query, udb)
    if key is not None:
        key += (tuple(id(part.relation) for part in udb.partitions(name)),)
    result = execute_keyed(query, udb, key, True, "columns", True)
    position = result.relation.schema.resolve(result.tid_names[0])
    return {row[position] for row in result.relation.rows}


def _positions_of(relation, name: str, tids: set) -> List[int]:
    """Live positions of the rows of ``relation`` carrying one of ``tids``
    (one C-level pass: the statement's Python work follows its matches)."""
    tid_of = itemgetter(relation.schema.resolve(tid_column(name)))
    held = map(tids.__contains__, map(tid_of, relation.rows))
    return list(compress(range(len(relation.rows)), held))


@_counted
def update_where(
    udb,
    name: str,
    assignments: Sequence[Tuple[str, Any]],
    condition: Optional[Expression] = None,
) -> DMLResult:
    """``UPDATE name SET attr = value, ... [WHERE condition]``.

    Affected tuples (possible-worlds match) are rewritten in every
    partition covering a SET column: the old alternatives are marked in
    the delete vector and updated copies — same descriptors, same tuple
    ids, SET columns overwritten in *all* alternatives — land in a fresh
    appended segment.  Partitions not covering any SET column are
    untouched (their relation objects, segments, and indexes survive).
    """
    schema = udb.logical_schema(name)
    updates: Dict[str, Any] = {}
    for attr, value in assignments:
        if attr not in schema.attributes:
            raise ValueError(
                f"UPDATE {name}: unknown column {attr!r} "
                f"(have {', '.join(schema.attributes)})"
            )
        value = _resolve(value)
        if isinstance(value, UncertainValue):
            raise ValueError(
                "uncertain alternative lists are only supported in INSERT"
            )
        updates[attr] = value
    tids = _matching_tids(udb, name, condition)
    if not tids:
        return DMLResult("update", 0)
    new_parts = []
    changed = False
    for part in udb.partitions(name):
        touched = [a for a in part.value_names if a in updates]
        if not touched:
            new_parts.append(part)
            continue
        relation = part.relation
        positions = _positions_of(relation, name, tids)
        if not positions:
            new_parts.append(part)
            continue
        value_base = 2 * part.d_width + len(part.tid_names)
        rewritten = []
        for i in positions:
            row = list(relation.rows[i])
            for offset, attr in enumerate(part.value_names):
                if attr in updates:
                    row[value_base + offset] = updates[attr]
            rewritten.append(tuple(row))
        derived = relation.with_deleted(positions).with_appended(rewritten)
        new_parts.append(
            URelation(derived, part.d_width, part.tid_names, part.value_names)
        )
        changed = True
    if changed:
        udb.replace_partitions(name, new_parts)
    return DMLResult("update", len(tids))


@_counted
def delete_where(
    udb, name: str, condition: Optional[Expression] = None
) -> DMLResult:
    """``DELETE FROM name [WHERE condition]``.

    Affected tuples (possible-worlds match) are removed from every
    partition by widening the delete vectors — segments are shared
    untouched, so persistence rewrites no segment file, only the vectors.
    """
    tids = _matching_tids(udb, name, condition)
    if not tids:
        return DMLResult("delete", 0)
    new_parts = []
    for part in udb.partitions(name):
        relation = part.relation
        derived = relation.with_deleted(_positions_of(relation, name, tids))
        if derived is relation:
            new_parts.append(part)
            continue
        new_parts.append(
            URelation(derived, part.d_width, part.tid_names, part.value_names)
        )
    udb.replace_partitions(name, new_parts)
    return DMLResult("delete", len(tids))
