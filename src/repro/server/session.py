"""Per-connection sessions: statement namespaces and transactions.

A :class:`Session` is the unit of client state on a shared
:class:`~repro.core.udatabase.UDatabase`.  It owns:

* **a prepared-statement namespace** — ``PREPARE``-style named statements
  (:meth:`Session.prepare`); ad-hoc texts (:meth:`Session.execute`) are
  prepared transparently.  Only the *names* are the session's: the
  statements behind them are the database's
  (:func:`repro.core.prepared.text_statement`), parsed once per text and
  planned once per structure whichever connection sends them.  Two
  sessions running ``where x = $1`` with different values run one
  statement and one cached plan at once, because a statement holds no
  values — each execution's ``$n`` values live in its own frame
  (:func:`repro.relational.expressions.executing`).  An ad-hoc text's
  equality literals are lifted into ``$n`` slots of one statement per
  query *shape*, so the same lookup with another key inlined runs the
  plan the first one built; named statements keep their literals.
* **its transaction, under snapshot isolation** — ``BEGIN`` /
  ``COMMIT`` / ``ROLLBACK`` (or :meth:`Session.begin` /
  :meth:`Session.commit` / :meth:`Session.rollback`) open and end one
  :class:`~repro.core.txn.Transaction`.  It reads the immutable
  :class:`~repro.core.udatabase.Catalog` published at ``BEGIN``, and
  every statement in it, ``SELECT`` included, reads that catalog with
  the transaction's own staged writes swapped in: a transaction sees its
  writes and nothing published after it began.  DML stages inline on the
  calling thread, invisible to every other session, and COMMIT publishes
  it as one atomic swap — or raises
  :class:`~repro.core.txn.TransactionConflict` when a relation it wrote
  was published since ``BEGIN`` (first-committer-wins at relation
  granularity; write skew is allowed).  :meth:`Session.snapshot` is a
  read-only transaction: ``with session.snapshot(): ...`` reads one
  catalog throughout, so concurrent writes never move its answers and
  never refuse a read.  Outside a transaction every statement reads the
  catalog published when it starts (an execution reads the catalog
  once, so a concurrent COMMIT cannot tear a running query).  A session
  is the only holder of a transaction: ``execute_sql`` autocommits every
  statement and refuses transaction control, so code without a server
  opens a standalone one (``udb.session()``).

Sessions serialize their own statements (one client speaks one protocol
connection); different sessions run fully in parallel through the
server's executor.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from ..core.prepared import PreparedDML, PreparedQuery, text_statement
from ..core.txn import Begin, Commit, Rollback, Transaction, TxnResult
from ..core.udatabase import UDatabase
from ..obs import current_trace, register_session, request_trace
from ..obs import span as obs_span
from ..sql import Vacuum, execute_immediate

__all__ = ["Session"]

def _result_rows(result: Any) -> int:
    """Row count of a statement result, for resource accounting.

    Duck-typed over the three result shapes a session can return:
    relations (certain or uncertain), DML results (rows written), and
    scalars (confidence values — zero rows).
    """
    rows = getattr(result, "rows", None)
    if rows is not None:
        return len(rows)
    inner = getattr(result, "relation", None)
    if inner is not None and getattr(inner, "rows", None) is not None:
        return len(inner.rows)
    count = getattr(result, "count", None)
    if isinstance(count, int):
        return count
    return 0


def _refusal(statement: Any, read_only: bool) -> str:
    """Why ``statement`` cannot run while a transaction is open
    (``read_only``: a snapshot block's)."""
    if read_only:
        what = (
            type(statement).__name__.upper()
            if isinstance(statement, (Begin, Commit, Rollback, Vacuum))
            else "DDL"
        )
        return f"{what} cannot run inside a snapshot, which only reads"
    if isinstance(statement, Begin):
        return "a transaction is already open; COMMIT or ROLLBACK it first"
    if isinstance(statement, Vacuum):
        return (
            "VACUUM cannot run inside a transaction (its swap would "
            "conflict with the transaction's own publish)"
        )
    return "DDL cannot run inside a transaction; COMMIT or ROLLBACK first"


class Session:
    """One client's statement names and transaction on a shared UDatabase."""

    def __init__(self, udb: UDatabase, server: Optional[Any] = None):
        self.udb = udb
        #: The owning :class:`~repro.server.server.QueryServer`, or None
        #: for a standalone session (statements then execute inline on the
        #: calling thread, without admission control or coalescing).
        self.server = server
        self._named: Dict[str, PreparedQuery] = {}
        #: Serializes this session's statements (a session models one
        #: connection; its requests are a sequence, not a pool).
        self._lock = threading.RLock()
        #: The open :class:`Transaction`, if any (set by BEGIN or a
        #: snapshot block, cleared by COMMIT / ROLLBACK or the block's
        #: end): while set, every statement reads its catalog and DML
        #: stages over it (see :mod:`repro.core.txn`).
        self._active_txn: Optional[Transaction] = None
        #: Whether the open transaction is a snapshot block's, which only
        #: reads.
        self._read_only = False
        self.statements_run = 0
        #: Key into the obs per-session resource accounting (see
        #: :mod:`repro.obs.accounting`; surfaced by ``server.stats()``).
        self.accounting_id = register_session()

    # ------------------------------------------------------------------
    # statement namespace
    # ------------------------------------------------------------------
    def prepare(self, name: str, sql: str) -> PreparedQuery:
        """Register a named prepared statement in this session's namespace.

        Re-preparing a name replaces it (the PostgreSQL ``PREPARE``
        convention is an error; replacement is friendlier for a serving
        loop and costs nothing).  The name belongs to this session; the
        statement is the database's for that text, literals kept.
        """
        prepared, _ = text_statement(sql, self.udb, False)
        if not isinstance(prepared, (PreparedQuery, PreparedDML)):
            raise ValueError(
                "cannot prepare DDL, VACUUM, or transaction control; "
                "pass it to Session.execute"
            )
        with self._lock:
            self._named[name] = prepared
        return prepared

    def deallocate(self, name: str) -> None:
        """Drop a named prepared statement (KeyError when absent)."""
        with self._lock:
            del self._named[name]

    def statement(self, name: str) -> PreparedQuery:
        """Look up a named prepared statement."""
        with self._lock:
            try:
                return self._named[name]
            except KeyError:
                raise KeyError(
                    f"no prepared statement {name!r} in this session; "
                    f"have {sorted(self._named)}"
                ) from None

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    @contextmanager
    def snapshot(self) -> Iterator["Session"]:
        """Repeatable reads: ``with session.snapshot(): ...``.

        The block is a read-only transaction: every statement in it reads
        the catalog published when it began, so a concurrent write never
        moves its answers and never refuses a read.  DML, DDL, ``VACUUM``
        and transaction control inside it raise ``ValueError``, and so
        does opening it inside a transaction (they do not nest).
        """
        with self._lock:
            self._open(read_only=True)
        try:
            yield self
        finally:
            with self._lock:
                txn, self._active_txn, self._read_only = self._active_txn, None, False
            txn.rollback()

    def begin(self) -> TxnResult:
        """Open a transaction on this session (``BEGIN``); refused when one
        is already open or inside a snapshot block (they do not nest)."""
        return self._immediate(Begin())

    def commit(self) -> TxnResult:
        """Publish the open transaction atomically (``COMMIT``).

        Raises :class:`~repro.core.txn.TransactionConflict` — with
        nothing published and the transaction rolled back — when a
        relation it wrote was published since ``BEGIN``.
        """
        return self._immediate(Commit())

    def rollback(self) -> TxnResult:
        """Discard the open transaction's staged statements (``ROLLBACK``)."""
        return self._immediate(Rollback())

    def compact(self, table: Optional[str] = None):
        """``VACUUM [table]`` as this session runs it: a server-bound
        session routes through the server, so compaction admits under the
        ``vacuum`` cost class."""
        if self.server is not None:
            return self.server.vacuum(table)
        return self.udb.compact(table)

    def _open(self, read_only: bool) -> None:
        if self._active_txn is not None:
            raise ValueError(_refusal(Begin(), self._read_only))
        self._active_txn, self._read_only = Transaction(self.udb), read_only

    def _immediate(self, statement):
        """Apply parsed DDL, ``VACUUM`` or transaction control.

        Transaction control is dispatched here and nowhere else, and so
        are the refusals: with a transaction open, only COMMIT / ROLLBACK
        run, and inside a snapshot block not even those.  DDL and
        ``VACUUM`` otherwise run through
        :func:`repro.sql.execute_immediate`, the dispatch ``execute_sql``
        runs.
        """
        with self._lock:
            txn = self._active_txn
            if txn is not None and (
                self._read_only or not isinstance(statement, (Commit, Rollback))
            ):
                raise ValueError(_refusal(statement, self._read_only))
            if not isinstance(statement, (Begin, Commit, Rollback)):
                return execute_immediate(statement, self.udb, self.compact)
            trace = current_trace()
            if trace is not None:
                trace.root.set(cost_class="txn")
            if isinstance(statement, Begin):
                self._open(read_only=False)
                return TxnResult("open")
            if txn is None:
                raise ValueError(
                    f"{type(statement).__name__.upper()} without an open transaction"
                )
            self._active_txn = None
            return txn.commit() if isinstance(statement, Commit) else txn.rollback()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()):
        """Run a SQL statement (queries, DML, index DDL), returning its result.

        Queries and DML are prepared transparently and routed through
        the server's admission + executor layers when the session is
        server-bound.  A query is cached on the database by shape, with
        its equality literals lifted into ``$n`` slots: a text that differs
        from an earlier one (of any session) only in those literals pays
        lex + parse and runs the earlier text's cached plan; translate +
        optimize + plan are paid once per shape.  DDL, ``VACUUM`` and
        transaction control come back from the same parse
        (:func:`~repro.core.prepared.text_statement`) as the parsed
        record and run inline, never cached.

        ``VACUUM [table]`` compacts segment stacks (through the server's
        ``vacuum`` admission class when server-bound), and
        ``BEGIN``/``COMMIT``/``ROLLBACK`` manage this session's
        transaction — while one is open, statements read its catalog and
        DML stages privately until COMMIT publishes it atomically.
        """
        with self._lock:
            with request_trace(sql=sql):
                prepared, lifted = text_statement(sql, self.udb, True)
                if not isinstance(prepared, (PreparedQuery, PreparedDML)):
                    return self._immediate(prepared)  # never cached
                # the literals lifted out of the text go after its own $n values
                return self._run(prepared, tuple(params) + lifted)

    def execute_prepared(self, name: str, *params: Any):
        """Run a named prepared statement with the given ``$n`` values."""
        with self._lock:
            prepared = self.statement(name)
            with request_trace(sql=prepared.sql or ""):
                # parsed at PREPARE time; the span keeps the tree's shape
                obs_span("parse", cached=True).finish()
                return self._run(prepared, params)

    def run(self, prepared: PreparedQuery, *params: Any):
        """Run a :class:`PreparedQuery` (from :meth:`prepare`) in this session."""
        with self._lock:
            with request_trace(sql=prepared.sql or ""):
                return self._run(prepared, params)

    def _run(self, prepared: PreparedQuery, params: Tuple[Any, ...]):
        txn = self._active_txn
        staged = txn is not None and isinstance(prepared, PreparedDML)
        if staged and self._read_only:
            raise ValueError("DML cannot run inside a snapshot, which only reads")
        self.statements_run += 1
        trace = current_trace()
        started = time.perf_counter()
        if staged:
            # derived over the transaction's catalog, inline (nothing
            # publishes until COMMIT, so there is no shared mutation for
            # the server's executor to serialize)
            if trace is not None:
                trace.root.set(cost_class="dml")
            result = txn.run(prepared, params)
        else:
            catalog = None if txn is None else txn.catalog(prepared.query)
            if self.server is not None:
                result = self.server.execute(prepared, params, catalog)
            elif catalog is None:  # autocommit DML, or a published read
                result = prepared.run(*params)
            else:
                result = prepared.run(*params, catalog=catalog)
        if trace is not None:  # accounted when the request finishes
            trace.account(
                self.accounting_id, 1, _result_rows(result), time.perf_counter() - started
            )
        return result

    def __repr__(self) -> str:
        bound = "server-bound" if self.server is not None else "standalone"
        return (
            f"Session({bound}, named={sorted(self._named)}, "
            f"statements_run={self.statements_run})"
        )
