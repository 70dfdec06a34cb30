"""Per-connection sessions: statement namespaces, snapshots, transactions.

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
* **read consistency via catalog snapshots** — within one statement,
  consistency is automatic (an execution reads the catalog once and
  resolves every partition its plan names there, so a concurrent table
  replacement or COMMIT cannot tear a running query).  *Across*
  statements, :meth:`Session.snapshot` gives optimistic repeatable reads:
  it holds the one immutable :class:`~repro.core.udatabase.Catalog` value
  published when the block began, and every statement in the block
  verifies, before and after it runs, that ``udb.catalog()`` is still
  that value, raising :class:`SnapshotChanged` when a concurrent write
  (DML, a transaction's COMMIT, VACUUM) published another.
  Access-path work publishes nothing and cannot move an answer, so it
  never conflicts a snapshot — neither the deferred index builds the
  block's own first query triggers, nor ``CREATE`` / ``DROP INDEX`` by
  another session.
* **multi-statement write atomicity** — ``BEGIN``/``COMMIT``/``ROLLBACK``
  (or :meth:`Session.begin` / :meth:`Session.commit` /
  :meth:`Session.rollback`) group this connection's DML into one
  :class:`~repro.core.txn.Transaction`: statements are derived over a
  staged catalog (invisible to every other session) and COMMIT
  publishes them as one atomic partition swap, refusing with
  :class:`~repro.core.txn.TransactionConflict` if a concurrent writer
  touched the same relations.  Queries inside a transaction read the
  committed base state; staged DML is applied inline on the calling
  thread (publication, at COMMIT, is the only catalog mutation).  A
  session is the only holder of a transaction: ``execute_sql``
  autocommits every statement and refuses transaction control, so code
  without a server opens a standalone one (``udb.session()``).

Sessions serialize their own statements (one client speaks one protocol
connection); different sessions run fully in parallel through the
server's executor.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.prepared import PreparedDML, PreparedQuery, text_statement
from ..core.txn import Begin, Commit, Rollback, Transaction, TxnResult
from ..core.udatabase import Catalog, UDatabase
from ..obs import counter as obs_counter
from ..obs import current_trace, record_statement, register_session, request_trace
from ..obs import span as obs_span
from ..sql import Vacuum, execute_immediate

__all__ = ["Session", "SnapshotChanged"]

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


class SnapshotChanged(RuntimeError):
    """A snapshot block cannot go on: a concurrent write replaced a
    relation under it, or the session asked to write inside it."""

    def __init__(self, what: str):
        super().__init__(
            f"{what}; re-issue the statement outside the snapshot or take "
            f"a new one"
        )
        # every optimistic-read conflict is constructed here, whichever
        # session method detects it — one counter covers them all
        obs_counter(
            "snapshot_conflicts_total",
            "Optimistic snapshot reads aborted by concurrent catalog movement",
        ).inc()


class Session:
    """One client's statement names, snapshot, and transaction on a shared
    UDatabase."""

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
        #: Inside ``with self.snapshot():``, the catalog the block began
        #: under (see :meth:`_check_snapshot`); else ``None``.
        self._snapshot_catalog: Optional[Catalog] = None
        #: The open per-connection :class:`Transaction`, if any (set by
        #: BEGIN, cleared by COMMIT / ROLLBACK): while set, the session's
        #: DML stages over the transaction's catalog and publishes in one
        #: swap at COMMIT (see :mod:`repro.core.txn`).
        self._active_txn: Optional[Transaction] = None
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
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "_Snapshot":
        """Optimistic repeatable reads: ``with session.snapshot(): ...``.

        Statements inside the block verify the catalog still holds the
        relation objects the block started under; a concurrent write
        raises :class:`SnapshotChanged` instead of silently mixing pre-
        and post-write answers across the block's statements.
        """
        return _Snapshot(self)

    def _check_snapshot(self) -> None:
        """Raise when a catalog was published since the snapshot began.

        The one discriminator for "could an answer have moved", checked
        before and after every statement of a block: a publish (DML,
        COMMIT, compaction) replaces the catalog value; access-path work
        (index builds, lazy or by DDL, and statistics) changes relations
        in place and publishes nothing.  The snapshot holds the catalog,
        and with it every relation version it names.
        """
        held = self._snapshot_catalog
        if held is not None and self.udb.catalog() is not held:
            raise SnapshotChanged(
                "a concurrent write replaced a relation during a snapshot read"
            )

    def _refuse_in_snapshot(self, what: str) -> None:
        if self._snapshot_catalog is not None:
            raise SnapshotChanged(f"{what} cannot run inside a snapshot, which only reads")

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> TxnResult:
        """Open a multi-statement transaction on this session (``BEGIN``).

        Refused inside a snapshot block (a write would break the
        snapshot's guarantee, exactly like plain DML) and when a
        transaction is already open (they do not nest).
        """
        return self._immediate(Begin())

    def commit(self) -> TxnResult:
        """Publish the open transaction atomically (``COMMIT``).

        Raises :class:`~repro.core.txn.TransactionConflict` — with
        nothing published and the transaction rolled back — when a
        concurrent writer replaced a touched relation's partitions.
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

    def _immediate(self, statement):
        """Apply parsed DDL, ``VACUUM`` or transaction control.

        Transaction control is dispatched here and nowhere else.  DDL and
        ``VACUUM`` are refused inside a transaction and otherwise run
        through :func:`repro.sql.execute_immediate`, the dispatch
        ``execute_sql`` runs; everything which writes or opens a write
        (all but COMMIT / ROLLBACK) is refused inside a snapshot block.
        """
        with self._lock:
            txn = self._active_txn
            if not isinstance(statement, (Commit, Rollback)):
                self._refuse_in_snapshot("DDL, VACUUM and BEGIN")
            if not isinstance(statement, (Begin, Commit, Rollback)):
                if txn is not None:
                    raise ValueError(
                        "VACUUM cannot run inside a transaction (its swap would "
                        "conflict with the transaction's own publish)"
                        if isinstance(statement, Vacuum)
                        else "DDL cannot run inside a transaction; COMMIT or ROLLBACK first"
                    )
                return execute_immediate(statement, self.udb, self.compact)
            trace = current_trace()
            if trace is not None:
                trace.root.set(cost_class="txn")
            if isinstance(statement, Begin):
                if txn is not None:
                    raise ValueError(
                        "a transaction is already open; COMMIT or ROLLBACK it first"
                    )
                self._active_txn = Transaction(self.udb)
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
        record and run inline, never cached; DDL and DML are rejected
        inside a snapshot block (the session's own write would break the
        snapshot's guarantee).

        ``VACUUM [table]`` compacts segment stacks (through the server's
        ``vacuum`` admission class when server-bound), and
        ``BEGIN``/``COMMIT``/``ROLLBACK`` manage this session's
        multi-statement transaction — while one is open, DML stages
        privately and publishes atomically at COMMIT.
        """
        with self._lock:
            self._check_snapshot()
            with request_trace(sql=sql):
                prepared, lifted = text_statement(sql, self.udb, True)
                if not isinstance(prepared, (PreparedQuery, PreparedDML)):
                    return self._immediate(prepared)  # never cached
                # the literals lifted out of the text go after its own $n values
                return self._run(prepared, tuple(params) + lifted)

    def execute_prepared(self, name: str, *params: Any):
        """Run a named prepared statement with the given ``$n`` values."""
        with self._lock:
            self._check_snapshot()
            prepared = self.statement(name)
            with request_trace(sql=prepared.sql or ""):
                with obs_span("parse", cached=True):
                    pass  # parsed at PREPARE time; keep the span present
                return self._run(prepared, params)

    def run(self, prepared: PreparedQuery, *params: Any):
        """Run a :class:`PreparedQuery` (from :meth:`prepare`) in this session."""
        with self._lock:
            self._check_snapshot()
            with request_trace(sql=prepared.sql or ""):
                return self._run(prepared, params)

    def _run(self, prepared: PreparedQuery, params: Tuple[Any, ...]):
        if isinstance(prepared, PreparedDML):
            # a session's own write would invalidate the snapshot it is
            # reading under
            self._refuse_in_snapshot("DML")
        self.statements_run += 1
        if isinstance(prepared, PreparedDML) and self._active_txn is not None:
            # derive over the transaction's staged catalog, inline
            # (nothing publishes until COMMIT, so there is no shared
            # mutation for the server's executor to serialize)
            return self._active_txn.run(prepared, params)
        started = time.perf_counter()
        if self.server is not None:
            result = self.server.execute(prepared, params)
        else:
            result = prepared.run(*params)
        trace = current_trace()
        record_statement(
            self.accounting_id,
            trace.root.attrs.get("cost_class") if trace is not None else None,
            rows=_result_rows(result),
            seconds=time.perf_counter() - started,
        )
        # optimistic validation closes on both sides: the pre-check alone
        # leaves a window where a swap lands after it but before the plan
        # resolves its relations, silently answering from the new catalog
        # inside a "repeatable" block
        self._check_snapshot()
        return result

    def __repr__(self) -> str:
        bound = "server-bound" if self.server is not None else "standalone"
        return (
            f"Session({bound}, named={sorted(self._named)}, "
            f"statements_run={self.statements_run})"
        )


class _Snapshot:
    """Context manager recording/clearing a session's snapshot catalog."""

    def __init__(self, session: Session):
        self._session = session

    def __enter__(self) -> Session:
        session = self._session
        with session._lock:
            if session._snapshot_catalog is not None:
                raise RuntimeError("session snapshots do not nest")
            session._snapshot_catalog = session.udb.catalog()
        return session

    def __exit__(self, *exc: Any) -> None:
        with self._session._lock:
            self._session._snapshot_catalog = None
