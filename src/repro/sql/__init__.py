"""``repro.sql`` — a SQL front-end for uncertain queries.

Parses the SQL dialect of the paper's Figure 8 — positive
select-project-join queries wrapped in ``possible (...)`` (or
``certain (...)``) — into logical query trees, and executes them against a
:class:`~repro.core.udatabase.UDatabase`::

    from repro.sql import execute_sql

    answer = execute_sql(
        \"\"\"possible (select o.orderkey from customer c, orders o
                       where c.mktsegment = 'BUILDING'
                         and c.custkey = o.custkey
                         and o.orderdate > '1995-03-15')\"\"\",
        udb,
    )

This is the paper's "ease of use" claim made concrete: the SQL surface,
the Figure 4 translation, and the relational optimizer compose without any
uncertainty-specific operators in the engine.
"""

from typing import Optional, Sequence, Union

from ..core.dml import Delete, DMLResult, Insert, UncertainValue, Update
from ..core.prepared import PreparedDML, PreparedQuery, text_statement
from ..core.query import UQuery
from ..core.txn import Begin, Commit, Rollback, Transaction, TransactionConflict, TxnResult
from ..core.udatabase import UDatabase
from ..obs import current_trace, request_trace
from .lexer import SqlSyntaxError, tokenize
from .parser import CreateIndex, DropIndex, Vacuum, parse

__all__ = [
    "parse",
    "prepare",
    "execute_sql",
    "execute_immediate",
    "fingerprint_sql",
    "tokenize",
    "SqlSyntaxError",
    "CreateIndex",
    "DropIndex",
    "Vacuum",
    "Insert",
    "Update",
    "Delete",
    "Begin",
    "Commit",
    "Rollback",
    "Transaction",
    "TransactionConflict",
    "TxnResult",
    "UncertainValue",
    "DMLResult",
    "PreparedQuery",
    "PreparedDML",
]

def fingerprint_sql(sql: str) -> Optional[str]:
    """The workload fingerprint of a SQL query text, or ``None``.

    Parses ``sql`` and digests its structure with literals and ``$n``
    bindings normalized out (see
    :func:`repro.core.translate.query_fingerprint`), so
    ``... where x = 5``, ``... where x = 7``, and ``... where x = $1``
    all share one fingerprint.  DML, DDL, VACUUM, and transaction control
    return ``None`` — the workload history tracks queries only.
    """
    from ..core.translate import query_fingerprint

    statement = parse(sql)
    return query_fingerprint(statement) if isinstance(statement, UQuery) else None


def prepare(sql: str, udb: UDatabase) -> Union[PreparedQuery, PreparedDML]:
    """Prepare a SQL query or DML statement (with optional ``$n`` slots).

    The statement is parsed once and the resulting
    :class:`~repro.core.prepared.PreparedQuery` (or, for
    INSERT/UPDATE/DELETE, :class:`~repro.core.prepared.PreparedDML`)
    cached on the database by SQL text, so ``prepare`` is idempotent.  A
    prepared query's first ``run`` plans it and inserts the physical tree
    into the prepared-plan cache, after which every execution — with any
    parameter values, from any thread — is executor-only (a statement
    holds no values; each ``run`` is one execution with its own
    :func:`~repro.relational.expressions.executing` frame); prepared DML
    reuses its parse
    the same way, and its WHERE matching rides the same plan cache.  DDL
    cannot be prepared.
    """
    prepared, _ = text_statement(sql, udb, False)
    if not isinstance(prepared, (PreparedQuery, PreparedDML)):
        raise ValueError(
            "cannot prepare DDL, VACUUM, or transaction control; "
            "pass it to execute_sql instead"
        )
    return prepared


def execute_sql(
    sql: str,
    udb: UDatabase,
    optimize: bool = True,
    params: Optional[Sequence] = None,
):
    """Parse and run a SQL statement against a U-relational database.

    Returns a plain :class:`~repro.relational.relation.Relation` for
    ``possible``/``certain`` statements, a
    :class:`~repro.core.probability.ConfidenceAnswer` (tuples + ``conf``
    column + computation summary) for ``conf (...)`` statements, a
    :class:`~repro.core.urelation.URelation` for bare queries, and a
    :class:`~repro.core.dml.DMLResult` for INSERT/UPDATE/DELETE (which
    re-execute on every call — the statement cache skips only their
    parsing).  ``optimize`` applies to queries; DML takes no options.

    Queries are prepared transparently, once per *shape*: the non-NULL
    literals of ``column = literal`` comparisons are lifted into ``$n``
    slots after the text's own, and the statement is cached on the
    database under the query structure that remains (see
    :func:`repro.core.prepared.text_statement`).  A text that differs from
    an earlier one only in such literals — the same lookup with another
    key inlined — therefore pays lex + parse and one walk over its tree,
    then runs the earlier statement's cached plan with its own values
    (concurrent callers share the statement and the plan as they are:
    each execution's values live in its own frame); a re-issued text
    skips the parse as well.  Translation,
    optimization and planning are paid once per shape (and again after a
    write to a scanned relation evicts the plan).  Range, ``BETWEEN`` and
    ``IN`` literals are part of the shape, because the planner's estimates
    read their values: such texts plan once per literal, as before.

    Index DDL (``CREATE INDEX name ON rel (cols) [USING HASH|SORTED]``,
    ``DROP INDEX name``) addresses a vertical partition by its
    ``u_<rel>_<attrs>`` label and is
    :meth:`UDatabase.create_index <repro.core.udatabase.UDatabase.create_index>`
    / ``drop_index``: the definition lands on the live partition relation
    under the write lock, follows it through every later write, is saved
    with it, and the planner sees the access path on the next query.
    ``CREATE INDEX`` returns the built
    :class:`~repro.relational.index.Index`; ``DROP INDEX`` returns
    ``None``; ``w`` is refused (no plan scans a world-table snapshot).

    ``VACUUM [table]`` compacts partition segment stacks (returns a
    :class:`~repro.core.udatabase.CompactionResult`), and
    ``BEGIN``/``COMMIT``/``ROLLBACK`` open/end a database-level
    multi-statement transaction (returning a
    :class:`~repro.core.txn.TxnResult`): while one is open, DML issued
    through ``execute_sql`` stages privately and publishes atomically at
    COMMIT — see :mod:`repro.core.txn`.  Like DDL, these are applied
    immediately and never cached; DDL and ``VACUUM`` are refused while
    the transaction is open (:func:`execute_immediate`, which a
    :class:`~repro.server.session.Session` runs on its own transaction).
    """
    with request_trace(sql=sql):
        prepared, lifted = text_statement(sql, udb, True)
        if not isinstance(prepared, (PreparedQuery, PreparedDML)):
            return execute_immediate(prepared, udb, udb)  # DDL & friends, never cached
        values = tuple(params or ()) + lifted
        if isinstance(prepared, PreparedDML):
            txn = udb._active_txn
            if txn is not None and txn.status == "open":
                # an open database-level transaction: stage, don't publish
                return txn.run(prepared, values)
            return prepared.run(*values)
        return prepared.run(*values, optimize=optimize)


def execute_immediate(statement, udb: UDatabase, holder):
    """Apply a DDL / VACUUM / transaction-control statement right now.

    The one dispatch, and the one copy of the refusal rules, behind
    :func:`execute_sql` and :class:`repro.server.session.Session`.
    ``holder`` is whoever holds the open transaction in ``_active_txn``
    and runs ``VACUUM`` through ``compact(table)``: the database itself
    for direct ``execute_sql`` callers (one database-level transaction),
    a session for a connection (its own transaction; a server-bound one
    compacts through the server's ``vacuum`` admission class).
    """
    txn = holder._active_txn
    in_txn = txn is not None and txn.status == "open"
    control = isinstance(statement, (Begin, Commit, Rollback))
    vacuum = isinstance(statement, Vacuum)
    trace = current_trace()
    if trace is not None:
        trace.root.set(cost_class="txn" if control else "vacuum" if vacuum else "ddl")
    if isinstance(statement, Begin):
        if in_txn:
            raise ValueError("a transaction is already open; COMMIT or ROLLBACK it first")
        holder._active_txn = Transaction(udb)
        return TxnResult("open")
    if control:
        if not in_txn:
            raise ValueError(
                f"{type(statement).__name__.upper()} without an open transaction"
            )
        holder._active_txn = None
        return txn.commit() if isinstance(statement, Commit) else txn.rollback()
    if vacuum:
        if in_txn:
            raise ValueError(
                "VACUUM cannot run inside a transaction (its swap would "
                "conflict with the transaction's own publish)"
            )
        return holder.compact(statement.table)
    if in_txn:
        raise ValueError("DDL cannot run inside a transaction; COMMIT or ROLLBACK first")
    if isinstance(statement, CreateIndex):
        return udb.create_index(
            statement.name, statement.table, statement.columns, statement.kind
        )
    return udb.drop_index(statement.name)
