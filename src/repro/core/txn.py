"""Multi-statement transactions: stage a catalog, publish it atomically.

A :class:`Transaction` groups several DML statements into ONE publish.
Each staged statement is an ordinary DML derivation
(:func:`~repro.core.dml.derive`) over the transaction's *staged catalog*:
the published :class:`~repro.core.udatabase.Catalog` with the relations
the transaction already wrote swapped in.  The transaction keeps what
each derivation returns — the replaced partition sets and the minted
world-table variables — and publishes none of it, so nothing a staged
statement does is visible to any reader, session, or concurrent writer.
The first time a relation is staged, the base partitions it was derived
from are kept as its conflict witness.

``COMMIT`` is the swap point the write path already has: under the base
database's write lock it

1. **checks for conflicts** — every staged relation's current base
   partition objects must still be *the exact objects* staging derived
   from (first-updater-wins; relations are immutable values, so object
   identity is the precise "nothing moved" test).  A concurrent writer or
   compaction that replaced them raises :class:`TransactionConflict` and
   the transaction rolls back, publishing nothing — the same refusal
   discipline as session snapshot reads;
2. gives each staged partition the index definitions of the live partition
   it replaces (another session's ``CREATE`` / ``DROP INDEX`` since staging
   began is kept, never a conflict);
3. publishes like any statement (:func:`~repro.core.dml.publish`): the
   buffered variables join the world table, then ONE catalog swap
   publishes every touched relation, so a reader sees all of it or none
   of it, and cached plans over the touched relations stay cached.

``ROLLBACK`` just drops the staging (tuple ids burnt by
``allocate_tids`` stay burnt — ids are never reused, matching every
sequence-based engine).

Reads inside a transaction: ``SELECT`` continues to run against the
committed base state (sessions and the server route queries unchanged);
only UPDATE/DELETE *matching* reads the staged catalog, which is what
gives consecutive staged statements read-your-writes semantics (an
UPDATE sees the rows an earlier staged INSERT added).  It is planned
under the database's own cache key, so a staged statement and an
autocommit one of the same shape share one plan, re-planned when the
staged versions' planning facts differ.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, NamedTuple, Tuple

from ..obs import counter
from ..relational.expressions import executing
from ..relational.index import attached_index_defs, defer_index, drop_index_def
from .dml import DMLResult, Write, derive, publish
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
    relation the transaction wrote no longer holds the partition objects
    staging derived from — a concurrent statement, transaction, or
    compaction replaced them.  First updater wins; the loser retries.
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


def _match_index_defs(live, successor) -> None:
    """Bring ``successor``'s index definitions to ``live``'s: defer what it
    lacks, drop (unbuilt or built) what ``live`` no longer has."""
    wanted = attached_index_defs(live)
    for columns, kind, name in attached_index_defs(successor):
        if (columns, kind, name) not in wanted:
            drop_index_def(successor, name)
    for columns, kind, name in wanted:
        defer_index(successor, columns, kind=kind, name=name)


class Transaction:
    """One open multi-statement transaction over a base UDatabase.

    Created by ``BEGIN`` (through :func:`repro.sql.execute_sql` or a
    session); :meth:`execute` stages parsed DML statements, then exactly
    one of :meth:`commit` / :meth:`rollback` ends it.  A transaction is
    owned by one session/connection and is not itself thread-safe (the
    owning session serializes access); the commit publish is safe against
    every concurrent reader and writer via the base write lock.
    """

    def __init__(self, udb) -> None:
        self.udb = udb
        self.status = "open"
        self.statements = 0
        #: name -> staged partition list (the transaction's latest state)
        self._staged: Dict[str, List[URelation]] = {}
        #: name -> the base partitions it was first staged over (conflict witness)
        self._witness: Dict[str, List[URelation]] = {}
        #: (variable, domain) pairs minted by uncertain inserts
        self._minted: List[Tuple[str, Tuple[int, ...]]] = []
        self._lock = threading.RLock()
        counter("txn_total", "Transactions begun").inc()

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------
    def execute(self, statement) -> DMLResult:
        """Stage one parsed DML statement: derive it over the staged catalog."""
        with self._lock:
            self._require_open()
            udb = self.udb
            with udb._write_lock:
                base = udb.catalog()
                write = derive(
                    statement,
                    udb,
                    base.replaced(self._staged, {}),
                    {var for var, _ in self._minted},
                )
            for name in write.relations.keys() - self._witness.keys():
                self._witness[name] = base.partitions(name)
            self._staged.update(write.relations)
            self._minted.extend(write.minted)
            self.statements += 1
            return write.result

    def run(self, prepared, params: Tuple[Any, ...] = ()) -> DMLResult:
        """Stage a prepared DML statement with ``params`` as its ``$n``
        values: :meth:`~repro.core.prepared.PreparedDML.run`, staged
        instead of published."""
        with self._lock:
            self._require_open()
            with executing(prepared.checked(params)):
                return self.execute(prepared.statement)

    # ------------------------------------------------------------------
    # ending
    # ------------------------------------------------------------------
    def commit(self) -> TxnResult:
        """Publish every staged statement in one catalog swap.

        Raises :class:`TransactionConflict` (after rolling back, nothing
        published) if any touched relation was concurrently modified.
        """
        with self._lock:
            self._require_open()
            udb = self.udb
            with udb._write_lock:
                for name, witness in self._witness.items():
                    current = udb.partitions(name)
                    if len(current) != len(witness) or any(
                        c.relation is not w.relation
                        for c, w in zip(current, witness)
                    ):
                        self._end("rolled_back")
                        raise TransactionConflict(name)
                    # other sessions' index DDL since staging began is no
                    # conflict: the successor takes the live definition set
                    for live, successor in zip(current, self._staged[name]):
                        _match_index_defs(live.relation, successor.relation)
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
        self._staged, self._witness, self._minted = {}, {}, []

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
