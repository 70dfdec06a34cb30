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

``execute_sql`` autocommits every statement.  A multi-statement
transaction belongs to a session, as it belongs to a connection in an
RDBMS: ``s = udb.session(); s.execute("begin")``.
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


def execute_sql(sql: str, udb: UDatabase, params: Optional[Sequence] = None):
    """Parse and run a SQL statement against a U-relational database.

    Returns a plain :class:`~repro.relational.relation.Relation` for
    ``possible``/``certain`` statements, a
    :class:`~repro.core.probability.ConfidenceAnswer` (tuples + ``conf``
    column + computation summary) for ``conf (...)`` statements, a
    :class:`~repro.core.urelation.URelation` for bare queries, and a
    :class:`~repro.core.dml.DMLResult` for INSERT/UPDATE/DELETE (which
    re-execute on every call — the statement cache skips only their
    parsing).  ``params`` are the ``$n`` values, ``$1`` first.

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
    optimization and planning are paid once per shape (and again only when
    a write changes a fact the plan was built on, see
    :mod:`repro.relational.plancache`).  Range, ``BETWEEN`` and
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

    ``VACUUM [table]`` applies the segment policy to every partition (returns a
    :class:`~repro.core.udatabase.CompactionResult`).  Like DDL, it is
    applied immediately and never cached (:func:`execute_immediate`).

    Every statement autocommits: ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``
    raise :class:`ValueError`, because a transaction belongs to a
    :class:`~repro.server.session.Session` (``udb.session()``), never to
    the database every caller shares.
    """
    with request_trace(sql=sql):
        prepared, lifted = text_statement(sql, udb, True)
        if isinstance(prepared, (PreparedQuery, PreparedDML)):
            return prepared.run(*(tuple(params or ()) + lifted))
        if isinstance(prepared, (Begin, Commit, Rollback)):
            raise ValueError(
                f"execute_sql autocommits every statement; run "
                f"{type(prepared).__name__.upper()} on a session: "
                f"s = udb.session(); s.execute('begin')"
            )
        return execute_immediate(prepared, udb, udb.compact)  # never cached


def execute_immediate(statement, udb: UDatabase, compact):
    """Apply a DDL or ``VACUUM`` statement right now.

    The one dispatch behind :func:`execute_sql` and
    :class:`repro.server.session.Session`.  ``compact(table)`` is how the
    caller runs ``VACUUM [table]``: ``udb.compact`` for ``execute_sql``,
    the session's own for a session (a server-bound one admits it under
    the server's ``vacuum`` cost class).
    """
    vacuum = isinstance(statement, Vacuum)
    trace = current_trace()
    if trace is not None:
        trace.root.set(cost_class="vacuum" if vacuum else "ddl")
    if vacuum:
        return compact(statement.table)
    if isinstance(statement, CreateIndex):
        return udb.create_index(
            statement.name, statement.table, statement.columns, statement.kind
        )
    return udb.drop_index(statement.name)
