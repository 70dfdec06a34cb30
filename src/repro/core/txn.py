"""Multi-statement transactions: snapshot isolation over one catalog.

A :class:`Transaction` reads the published
:class:`~repro.core.udatabase.Catalog` once, at ``BEGIN``; every
statement in it reads that catalog with the relations it already wrote
swapped in, so it sees its own writes and nothing published after
``BEGIN``.  Each staged DML statement is an ordinary derivation
(:func:`~repro.core.dml.derive`) over that catalog; the transaction
keeps the replaced partition sets and the minted world-table variables
and publishes nothing.  A ``conf`` or ``certain`` read after an
uncertain insert reads a copy of the world table holding the minted
variables, built on that read.

``COMMIT`` is the swap point the write path already has: under the base
database's write lock it

1. **checks for conflicts** — every relation the transaction wrote must
   still hold, in the published catalog, the partitions of the ``BEGIN``
   catalog: staging derived from them, so a write published since — a
   statement, another COMMIT, a VACUUM — would be lost, and the commit
   raises :class:`TransactionConflict`, publishing nothing.
   First-committer-wins at relation granularity: transactions writing
   disjoint relations both commit whatever they read, so write skew is
   allowed — snapshot isolation as in Berenson et al., "A Critique of
   ANSI SQL Isolation Levels" (SIGMOD 1995);
2. gives each staged partition the index definitions of the live partition
   it replaces (another session's ``CREATE`` / ``DROP INDEX`` since
   ``BEGIN`` is kept, never a conflict);
3. publishes like any statement (:func:`~repro.core.dml.publish`): the
   buffered variables join the world table, then ONE catalog swap
   publishes every touched relation, so a reader sees all of it or none
   of it, and cached plans over the touched relations stay cached.

``ROLLBACK`` just drops the staging (tuple ids burnt by
``allocate_tids`` stay burnt — ids are never reused, matching every
sequence-based engine).  Statements read the transaction's catalog under
the database's own plan keys, so a statement in a transaction and an
autocommit one of the same shape share one plan, re-planned when the
staged versions' planning facts differ.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, NamedTuple, Tuple

from ..obs import counter
from ..relational.expressions import executing
from ..relational.index import index_defs_on, set_index_defs
from .dml import DMLResult, Write, derive, publish
from .query import Certain, Conf, UQuery
from .udatabase import Catalog
from .urelation import URelation

__all__ = [
    "Transaction",
    "TransactionConflict",
    "TxnResult",
    "Begin",
    "Commit",
    "Rollback",
]


class Begin(NamedTuple):
    """Parsed ``BEGIN [TRANSACTION | WORK]``."""


class Commit(NamedTuple):
    """Parsed ``COMMIT [TRANSACTION | WORK]``."""


class Rollback(NamedTuple):
    """Parsed ``ROLLBACK [TRANSACTION | WORK]``."""


class TransactionConflict(RuntimeError):
    """Commit refused: a touched relation moved under the transaction.

    Raised (after rolling the transaction back) when, at commit time, a
    relation the transaction wrote was published since its ``BEGIN`` —
    by a statement, another transaction, or compaction.  First committer
    wins; the loser retries.
    """

    def __init__(self, relation: str):
        super().__init__(
            f"transaction conflict: relation {relation!r} was modified "
            "concurrently; nothing was published — retry the transaction"
        )
        self.relation = relation
        counter(
            "txn_conflicts_total", "Transactions refused at commit by conflict"
        ).inc()


class TxnResult(NamedTuple):
    """Outcome of a transaction-control statement (BEGIN/COMMIT/ROLLBACK).

    ``status`` is ``"open"``, ``"committed"``, or ``"rolled_back"``;
    ``statements`` counts the DML staged; ``relations`` names the logical
    relations a commit published (empty for BEGIN/ROLLBACK) and
    ``variables`` the world-table variables it minted.
    """

    status: str
    statements: int = 0
    relations: Tuple[str, ...] = ()
    variables: Tuple[str, ...] = ()

    def __str__(self) -> str:
        text = self.status.replace("_", " ").upper()
        if self.status != "open":
            text += f" ({self.statements} statements"
            if self.relations:
                text += f", {len(self.relations)} relations"
            text += ")"
        return text


class Transaction:
    """One open transaction over a base UDatabase: the catalog of its
    ``BEGIN`` and what it staged over it.

    Opened by a session's ``BEGIN`` (or its ``snapshot()`` block, which
    stages nothing); :meth:`run` stages DML statements, :meth:`catalog`
    is what every statement reads, then exactly one of :meth:`commit` /
    :meth:`rollback` ends it.  A transaction is owned by
    one session and is not itself thread-safe (the owning session
    serializes access); the commit publish is safe against every
    concurrent reader and writer via the base write lock.
    """

    def __init__(self, udb) -> None:
        self.udb = udb
        self.status = "open"
        self.statements = 0
        #: The catalog published at BEGIN: the conflict witness COMMIT
        #: checks the published one against.
        self._begun = udb.catalog()
        #: ``_begun`` with the staged relations swapped in (and, after a
        #: ``conf`` / ``certain`` read, a world table with ``_minted``).
        self._catalog = self._begun
        #: name -> staged partition list (the transaction's latest state)
        self._staged: Dict[str, List[URelation]] = {}
        #: (variable, domain) pairs minted by uncertain inserts
        self._minted: List[Tuple[str, Tuple[int, ...]]] = []
        self._lock = threading.RLock()
        counter("txn_total", "Transactions begun").inc()

    def catalog(self, query: UQuery) -> Catalog:
        """What ``query``, a statement in this transaction, reads.

        A ``conf`` or ``certain`` query reads the world table: once the
        transaction has minted variables, its catalog then carries a copy
        of the base world table holding them, built on the first such
        read after a staging.
        """
        with self._lock:
            catalog = self._catalog
            if (
                isinstance(query, (Conf, Certain))
                and self._minted
                and catalog.world_table is self._begun.world_table
            ):
                table = catalog.world_table.copy()
                for var, domain in self._minted:
                    table.add_variable(var, domain)
                catalog = self._catalog = catalog._replace(world_table=table)
            return catalog

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------
    def run(self, prepared, params: Tuple[Any, ...] = ()) -> DMLResult:
        """Stage a prepared DML statement with ``params`` as its ``$n``
        values: :meth:`~repro.core.prepared.PreparedDML.run`, derived
        over :meth:`catalog` and staged instead of published."""
        with self._lock:
            self._require_open()
            udb, taken = self.udb, {var for var, _ in self._minted}
            with executing(prepared.checked(params)), udb._write_lock:
                write = derive(prepared.statement, udb, self._catalog, taken)
            if write.relations:
                self._staged.update(write.relations)
                self._minted.extend(write.minted)
                self._catalog = self._begun.replaced(self._staged, {})
            self.statements += 1
            return write.result

    # ------------------------------------------------------------------
    # ending
    # ------------------------------------------------------------------
    def commit(self) -> TxnResult:
        """Publish every staged statement in one catalog swap.

        Raises :class:`TransactionConflict` (after rolling back, nothing
        published) if a relation the transaction wrote was published
        since ``BEGIN``.
        """
        with self._lock:
            self._require_open()
            udb = self.udb
            with udb._write_lock:
                published = udb.catalog().relations
                for name, staged in self._staged.items():
                    # a publish of a relation replaces its partition tuple
                    if published[name] is not self._begun.relations[name]:
                        self._end("rolled_back")
                        raise TransactionConflict(name)
                    # other sessions' index DDL since BEGIN is no
                    # conflict: the successor takes the live definition set
                    for live, successor in zip(published[name], staged):
                        set_index_defs(successor.relation, index_defs_on(live.relation))
                result = TxnResult(
                    "committed",
                    self.statements,
                    tuple(sorted(self._staged)),
                    tuple(var for var, _ in self._minted),
                )
                publish(udb, Write(result, self._staged, self._minted))
            self._end("committed")
            counter("txn_committed_total", "Transactions committed").inc()
            return result

    def rollback(self) -> TxnResult:
        """Discard everything staged; the base database never knew."""
        with self._lock:
            self._require_open()
            self._end("rolled_back")
            counter("txn_rolled_back_total", "Transactions rolled back").inc()
            return TxnResult("rolled_back", self.statements)

    def _end(self, status: str) -> None:
        """Close the transaction; a finished one holds no relation versions."""
        self.status = status
        self._begun = self._catalog = None
        self._staged, self._minted = {}, []

    def _require_open(self) -> None:
        if self.status != "open":
            raise RuntimeError(
                f"transaction is {self.status}; begin a new one"
            )

    def __repr__(self) -> str:
        return (
            f"Transaction({self.status}, {self.statements} statements, "
            f"{sorted(self._staged)})"
        )
