"""DML over U-relational databases: INSERT / UPDATE / DELETE.

The write path is log-structured, mirroring the paper's representation
invariants: U-relations are *plain relations*, and relations here are
immutable values.  A DML statement
therefore never mutates a partition in place — over the
:class:`~repro.core.udatabase.Catalog` it is given, it derives a **new**
:class:`~repro.relational.relation.Relation` composed of the old one's
immutable segments plus, per statement,

* an appended segment (INSERT, and the rewritten tuples of UPDATE), and/or
* a widened delete vector (DELETE, and the superseded tuples of UPDATE),

and returns the new partition sets in a :class:`Write`, publishing
nothing.  :func:`publish` is the one way a write becomes visible: its
variables join the world table, then ONE catalog swap.  Autocommit DML
derives over ``udb.catalog()`` and publishes at once; a transaction
derives over its own catalog (its ``BEGIN`` one, its writes swapped in)
and publishes at COMMIT
(:mod:`repro.core.txn`).  The derivation itself
(:meth:`Relation.with_appended` / :meth:`Relation.with_deleted`) copies
nothing: the new version shares the old one's segments, and with them
everything built over their rows — column vectors, NULL and all-equal
counts, index structures, probe tables — and keeps its index definitions
and statistics.  An append builds only its own segment's structures and a
delete builds none, and UPDATE / DELETE find their rows through the
partition's tid index, so a write costs Python work in proportion to the
rows it writes, not to the partition.
In-flight executions, snapshot blocks and open transactions keep reading
the versions of the catalog they started on; and a cached plan
over the written partitions stays cached: it names partitions, not
versions, and re-plans only if the new versions' planning facts differ
(see :mod:`repro.relational.plancache`).

Uncertain inserts follow Section 2's "new variable with a fresh domain"
construction: a value cell listing k alternatives mints one fresh
world-table variable with domain ``0..k-1`` and expands, inside each
vertical partition covering the attribute, into k tuples whose
ws-descriptors assign the variable — so the insert adds ``k`` local
worlds multiplying the world count, at ``k`` representation tuples.

UPDATE/DELETE match tuples under *possible-worlds* semantics: a tuple id
is affected when its WHERE condition holds in at least one world (the
matching runs as an ordinary translated query over the derivation's
catalog, so it is planned, cached, and indexed like any read).  UPDATE
rewrites every alternative of an affected tuple in the partitions
covering the SET columns, keeping descriptors and tuple ids; DELETE
removes the tuple from every partition (all its alternatives, in all
worlds).
"""

from __future__ import annotations

import functools
from typing import Any, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs import counter as _counter
from ..relational.expressions import Expression, Param, slot_count
from ..relational.index import IndexDef, index_named
from .descriptor import Descriptor, encode_descriptor
from .query import Rel, USelect
from .udatabase import partition_label
from .urelation import URelation, tid_column

__all__ = [
    "UncertainValue",
    "DMLResult",
    "Insert",
    "Update",
    "Delete",
    "Write",
    "copy_rows",
    "update_where",
    "delete_where",
    "derive",
    "publish",
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


class Write(NamedTuple):
    """One derived write, not yet visible to anyone.

    ``relations`` maps each logical relation the write changes to its
    replacement partition set, and ``minted`` lists the
    ``(variable, domain)`` pairs its uncertain cells need in the world
    table.  ``result`` is what :func:`publish` hands back: a statement's
    :class:`DMLResult` (a COMMIT's :class:`~repro.core.txn.TxnResult`).
    """

    result: Any
    relations: Dict[str, List[URelation]]
    minted: Sequence[Tuple[str, Tuple[int, ...]]] = ()


def _counted(fn):
    """Meter a DML derivation from its :class:`Write`'s :class:`DMLResult`.

    Every write — SQL DML, prepared DML, COPY, the programmatic
    ``udb.insert``, and a transaction's staged statements — is derived by
    one of the three decorated functions, so ``dml_statements_total{op}``
    / ``dml_rows_total{op}`` count all of them exactly once.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Write:
        write = fn(*args, **kwargs)
        result = write.result
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
        return write

    return wrapper


def derive(statement, udb, catalog, taken: Collection[str] = ()) -> Write:
    """Derive a parsed DML statement over ``catalog``; publish nothing.

    ``udb`` owns ``catalog``: it hands out tuple ids and keys the
    UPDATE/DELETE matching plan, and a fresh variable name avoids its
    world table and ``taken`` (what an open transaction already minted).
    The caller holds ``udb._write_lock``.
    """
    if isinstance(statement, Insert):
        return _insert(udb, catalog, statement.table, statement.rows, "insert", taken)
    if isinstance(statement, Update):
        return update_where(
            udb, catalog, statement.table, statement.assignments, statement.condition
        )
    if isinstance(statement, Delete):
        return delete_where(udb, catalog, statement.table, statement.condition)
    raise TypeError(f"not a DML statement: {type(statement).__name__}")


def publish(udb, write: Write) -> Any:
    """Make ``write`` visible and return its result: the only way one is.

    The minted variables join the world table (one version bump each),
    then ONE :meth:`~repro.core.udatabase.UDatabase.publish` swaps every
    replaced relation in.  The caller holds ``udb._write_lock``.
    """
    for var, domain in write.minted:
        udb.world_table.add_variable(var, domain)
    if write.relations:
        udb.publish(write.relations)
    return write.result


def execute_dml(statement, udb) -> DMLResult:
    """Derive a parsed DML statement over ``udb.catalog()`` and publish it.

    Holds the database's write lock across both: the write path is
    read-derive-swap over the partition lists, and two concurrent writers
    interleaving would lose one's appends.  Readers never wait — they
    execute against the immutable relation versions of the catalog they
    read once.
    """
    with udb._write_lock:
        return publish(udb, derive(statement, udb, udb.catalog()))


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


def copy_rows(udb, name: str, rows) -> DMLResult:
    """Bulk-ingest an iterable of logical tuples as one batch (``COPY``).

    The streaming sibling of a multi-row INSERT: ``rows`` (any iterable,
    materialized here) lands as one appended segment per partition and
    one catalog publish, metered under ``op="copy"``.  Rows follow INSERT
    cell rules, uncertain alternative lists included.
    """
    with udb._write_lock:
        return publish(udb, _insert(udb, udb.catalog(), name, list(rows), "copy"))


def _fresh_variable(world, taken: Collection[str], base: str) -> str:
    """``base``, or ``base_<n>`` for the first ``n >= 2`` that names no
    variable of ``world`` and is not in ``taken``."""
    var = base
    suffix = 2
    while var in world or var in taken:
        var = f"{base}_{suffix}"
        suffix += 1
    return var


@_counted
def _insert(
    udb, catalog, name: str, value_rows: Sequence[Sequence[Any]], op: str, taken=()
) -> Write:
    """Derive the insert of logical tuples (possibly uncertain) into ``name``.

    Each row must match the logical schema's arity.  Cells may be plain
    values, bound ``$n`` :class:`Param` slots, or :class:`UncertainValue`
    alternative lists.  Every vertical partition receives the sub-row for
    its value columns under one fresh shared tuple id, so inserted tuples
    are complete in every world that picks an alternative.

    A multi-row ``VALUES`` list (or a COPY) is one batch: per partition
    the whole statement appends ONE segment, however many rows it carries.
    """
    schema = catalog.logical_schema(name)
    parts = catalog.partitions(name)
    if not value_rows:
        return Write(DMLResult(op, 0), {})
    width = len(schema.attributes)
    tid = udb.allocate_tids(name, len(value_rows))
    minted: List[Tuple[str, Tuple[int, ...]]] = []
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
                var = _fresh_variable(udb.world_table, taken, f"{name}_{tid}_{attr}")
                minted.append((var, tuple(range(len(value.alternatives)))))
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
    new_parts = [
        _successor(part, part.relation.with_appended(rows))
        for part, rows in zip(parts, appends)
    ]
    return Write(
        DMLResult(op, len(value_rows), tuple(var for var, _ in minted)),
        {name: new_parts},
        minted,
    )


def _matching_tids(udb, catalog, name: str, condition: Optional[Expression]) -> set:
    """Tuple ids whose condition possibly holds (None matches everything)."""
    if condition is None:
        tids = set()
        tid_name = tid_column(name)
        for part in catalog.partitions(name):
            position = part.relation.schema.resolve(tid_name)
            tids.update(row[position] for row in part.relation)
        return tids
    from .translate import execute_keyed, query_cache_key

    query = USelect(Rel(name), condition)
    # one plan per condition shape, keyed on the database: it reads the
    # versions of the catalog it is handed (a transaction's staged ones
    # too) and re-plans only when their planning facts differ
    result = execute_keyed(query, udb, query_cache_key(query, udb), catalog)
    position = result.relation.schema.resolve(result.tid_names[0])
    return {row[position] for row in result.relation.rows}


def _successor(part: URelation, relation) -> URelation:
    """``part`` over ``relation``, a version derived from its own."""
    if relation is part.relation:
        return part
    return URelation(relation, part.d_width, part.tid_names, part.value_names)


def _matches(part: URelation, name: str, tids: set) -> List[Tuple[int, Tuple]]:
    """``(ordinal, row)`` of the live rows of ``part`` carrying one of
    ``tids``, found through the partition's tid index (its
    ``idx_<label>_tid`` definition, built privately if it has none): the
    statement's Python work follows its matches, not the partition."""
    relation = part.relation
    position = relation.schema.resolve(tid_column(name))
    definition = IndexDef(
        f"idx_{partition_label(name, part)}_tid",
        (relation.schema.names[position],),
        "hash",
        (position,),
    )
    return index_named(relation, definition).matches(tids)


@_counted
def update_where(
    udb,
    catalog,
    name: str,
    assignments: Sequence[Tuple[str, Any]],
    condition: Optional[Expression] = None,
) -> Write:
    """Derive ``UPDATE name SET attr = value, ... [WHERE condition]``.

    Affected tuples (possible-worlds match) are rewritten in every
    partition covering a SET column: the old alternatives are marked in
    the delete vector and updated copies — same descriptors, same tuple
    ids, SET columns overwritten in *all* alternatives — land in a fresh
    appended segment.  Partitions not covering any SET column are
    untouched (their relation objects, segments, and indexes survive).
    """
    schema = catalog.logical_schema(name)
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
    tids = _matching_tids(udb, catalog, name, condition)
    if not tids:
        return Write(DMLResult("update", 0), {})
    new_parts = []
    changed = False
    for part in catalog.partitions(name):
        relation = part.relation
        touched = any(attr in updates for attr in part.value_names)
        matched = _matches(part, name, tids) if touched else None
        if not matched:
            new_parts.append(part)
            continue
        value_base = 2 * part.d_width + len(part.tid_names)
        rewritten = []
        for _, old in matched:
            row = list(old)
            for offset, attr in enumerate(part.value_names):
                if attr in updates:
                    row[value_base + offset] = updates[attr]
            rewritten.append(tuple(row))
        derived = relation.with_deleted(o for o, _ in matched).with_appended(rewritten)
        new_parts.append(_successor(part, derived))
        changed = True
    return Write(DMLResult("update", len(tids)), {name: new_parts} if changed else {})


@_counted
def delete_where(
    udb, catalog, name: str, condition: Optional[Expression] = None
) -> Write:
    """Derive ``DELETE FROM name [WHERE condition]``.

    Affected tuples (possible-worlds match) are removed from every
    partition by widening the delete vectors — segments are shared
    untouched, so persistence rewrites no segment file, only the vectors.
    """
    tids = _matching_tids(udb, catalog, name, condition)
    if not tids:
        return Write(DMLResult("delete", 0), {})
    new_parts = [
        _successor(part, part.relation.with_deleted(o for o, _ in _matches(part, name, tids)))
        for part in catalog.partitions(name)
    ]
    return Write(DMLResult("delete", len(tids)), {name: new_parts})
