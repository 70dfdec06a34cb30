"""Multi-statement transactions: stage privately, publish atomically.

A :class:`Transaction` groups several DML statements into ONE publish.
Each staged statement executes through the ordinary
:func:`~repro.core.dml.execute_dml` machinery, but against a private
*overlay* of the base :class:`~repro.core.udatabase.UDatabase`: the
overlay answers ``partitions()`` from the transaction's staged state
(falling back to — and recording — the base's current partition objects
on first touch), collects ``replace_partitions`` swaps into the staging
dict instead of the catalog, and buffers world-table variables minted by
uncertain inserts.  Nothing a staged statement does is visible to any
reader, session, or concurrent writer.

``COMMIT`` is the swap point the write path already has: under the base
database's write lock it

1. **checks for conflicts** — every staged relation's current base
   partition objects must still be *the exact objects* staging derived
   from (first-updater-wins; relations are immutable values, so object
   identity is the precise "nothing moved" test).  A concurrent writer or
   compaction that replaced them raises :class:`TransactionConflict` and
   the transaction rolls back, publishing nothing — the same refusal
   discipline as session snapshot reads;
2. adds the buffered variables to the shared world table (one version
   bump per variable, exactly as the statements would have done);
3. gives each staged partition the index definitions of the live partition
   it replaces (another session's ``CREATE`` / ``DROP INDEX`` since staging
   began is kept, never a conflict), then publishes each touched relation
   with ONE
   :meth:`~repro.core.udatabase.UDatabase.replace_partitions` swap —
   so the plan cache sees exactly one ``bump_relation`` per replaced
   partition relation for the whole transaction, not one per statement.

``ROLLBACK`` just drops the staging (tuple ids burnt by
``allocate_tids`` stay burnt — ids are never reused, matching every
sequence-based engine).

Reads inside a transaction: ``SELECT`` continues to run against the
committed base state (sessions and the server route queries unchanged);
only UPDATE/DELETE *matching* runs on the overlay, which is what gives
consecutive staged statements read-your-writes semantics (an UPDATE sees
the rows an earlier staged INSERT added).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs import counter
from ..relational.expressions import executing
from ..relational.index import attached_index_defs, defer_index, drop_index_def
from .dml import DMLResult, execute_dml

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


class _StagedWorldTable:
    """The overlay's world table: reads see base + buffered variables.

    ``add_variable`` buffers instead of publishing, so an uncertain
    insert inside a transaction mints nothing visible until COMMIT;
    ``__contains__`` covers both sides so ``fresh_variable`` never hands
    out a name the transaction itself already staged.
    """

    __slots__ = ("_txn", "_base")

    def __init__(self, txn: "Transaction", base) -> None:
        self._txn = txn
        self._base = base

    def __contains__(self, var: str) -> bool:
        return var in self._txn._minted_names or var in self._base

    def add_variable(
        self,
        var: str,
        values: Sequence[Any],
        probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        if var in self:
            raise ValueError(f"variable {var!r} already defined")
        self._txn._minted.append((var, tuple(values), probabilities))
        self._txn._minted_names.add(var)

    def __getattr__(self, attribute: str) -> Any:
        # staged statements only mint; anything else (a version read, a
        # domain lookup) can safely see the base
        return getattr(self._base, attribute)


class _TxnOverlay:
    """The UDatabase facade staged statements execute against.

    Implements exactly the surface :func:`execute_dml` and the matching
    query path touch: ``logical_schema`` / ``partitions`` /
    ``replace_partitions`` / ``allocate_tids`` / ``fresh_variable`` /
    ``world_table`` / ``_write_lock`` / ``catalog_identity``.  ``_write_lock`` IS the base lock,
    so each staged statement still serializes with concurrent writers
    (``allocate_tids`` mutates the base high-water mark); it is released
    between statements.  Staged relations carry index *definitions* from
    their base objects, and the publish path matches them to whatever is
    current at commit.
    """

    def __init__(self, txn: "Transaction", base) -> None:
        self._txn = txn
        self.base = base
        self.world_table = _StagedWorldTable(txn, base.world_table)
        self._write_lock = base._write_lock

    def catalog_identity(self) -> Dict[str, Any]:
        # the planner's cache-store guard compares this before/after
        # translation (see translate._cached_physical): staged names answer
        # from the overlay's own objects (a base swap cannot stale them),
        # unstaged names from the base — so a concurrent commit replacing
        # an unstaged relation mid-planning skips the store here too.
        # Reads self._txn._staged directly: partitions() would record a
        # conflict witness, and planning a read must not do that.
        out = {}
        for name in self.base.relation_names():
            staged = self._txn._staged.get(name)
            parts = staged if staged is not None else self.base.partitions(name)
            out[name] = tuple(id(part.relation) for part in parts)
        return out

    def logical_schema(self, name: str):
        return self.base.logical_schema(name)

    def partitions(self, name: str) -> List[Any]:
        staged = self._txn._staged.get(name)
        if staged is not None:
            return list(staged)
        parts = self.base.partitions(name)
        # remember the exact base objects this derivation starts from —
        # commit validates against them (object identity = no conflict)
        self._txn._snapshot.setdefault(name, list(parts))
        return parts

    def replace_partitions(self, name: str, partitions: Sequence[Any]) -> None:
        base_parts = self._txn._snapshot.get(name) or self.base.partitions(name)
        if len(base_parts) != len(partitions):
            raise ValueError(
                f"replacement for {name!r} must keep its {len(base_parts)} partitions"
            )
        self._txn._staged[name] = list(partitions)

    def allocate_tids(self, name: str, count: int) -> int:
        return self.base.allocate_tids(name, count)

    def fresh_variable(self, name: str, tid: Any, attribute: str) -> str:
        base = f"{name}_{tid}_{attribute}"
        var = base
        suffix = 2
        while var in self.world_table:
            var = f"{base}_{suffix}"
            suffix += 1
        return var


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
        self._staged: Dict[str, List[Any]] = {}
        #: name -> the base partition objects first read (conflict witness)
        self._snapshot: Dict[str, List[Any]] = {}
        #: buffered (var, domain, probabilities) minted by uncertain inserts
        self._minted: List[Tuple[str, Tuple[Any, ...], Optional[Sequence[float]]]] = []
        self._minted_names: set = set()
        self._overlay = _TxnOverlay(self, udb)
        self._lock = threading.RLock()
        counter("txn_total", "Transactions begun").inc()

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------
    def execute(self, statement) -> DMLResult:
        """Stage one parsed DML statement against the private overlay."""
        with self._lock:
            self._require_open()
            result = execute_dml(statement, self._overlay)
            self.statements += 1
            return result

    def run(self, prepared, params: Tuple[Any, ...] = ()) -> DMLResult:
        """Stage a prepared DML statement with ``params`` as its ``$n``
        values: :meth:`~repro.core.prepared.PreparedDML.run` against the
        overlay instead of the database."""
        with self._lock:
            self._require_open()
            with executing(prepared.checked(params)):
                return self.execute(prepared.statement)

    # ------------------------------------------------------------------
    # ending
    # ------------------------------------------------------------------
    def commit(self) -> TxnResult:
        """Publish every staged statement as one atomic catalog swap.

        Raises :class:`TransactionConflict` (after rolling back, nothing
        published) if any touched relation was concurrently modified.
        """
        with self._lock:
            self._require_open()
            udb = self.udb
            with udb._write_lock:
                for name, staged in self._staged.items():
                    current = udb.partitions(name)
                    witness = self._snapshot.get(name, [])
                    if len(current) != len(witness) or any(
                        c.relation is not w.relation
                        for c, w in zip(current, witness)
                    ):
                        self.status = "rolled_back"
                        raise TransactionConflict(name)
                for var, values, probabilities in self._minted:
                    udb.world_table.add_variable(var, values, probabilities)
                for name, staged in self._staged.items():
                    # other sessions' index DDL since staging began is no
                    # conflict: the successor takes the live definition set
                    for live, successor in zip(udb.partitions(name), staged):
                        _match_index_defs(live.relation, successor.relation)
                    udb.replace_partitions(name, staged)
            self.status = "committed"
            counter("txn_committed_total", "Transactions committed").inc()
            return TxnResult(
                "committed",
                self.statements,
                tuple(sorted(self._staged)),
                tuple(var for var, _, _ in self._minted),
            )

    def rollback(self) -> TxnResult:
        """Discard everything staged; the base database never knew."""
        with self._lock:
            self._require_open()
            self.status = "rolled_back"
            counter("txn_rolled_back_total", "Transactions rolled back").inc()
            return TxnResult("rolled_back", self.statements)

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
