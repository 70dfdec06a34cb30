"""Property: sessions' interleaved transactions are snapshot isolation.

The declared level: a transaction reads the catalog published at its
``BEGIN`` with its own writes in, and its ``COMMIT`` succeeds exactly when
no transaction committed after that ``BEGIN`` wrote a relation it wrote
(first-committer-wins at relation granularity, so write skew is allowed;
Berenson et al., "A Critique of ANSI SQL Isolation Levels", SIGMOD 1995).
An autocommit statement is a transaction of its own, and ``VACUUM`` writes
every relation it compacts: the one relation whose ``v`` partition starts
in a layout outside the segment policy, until a write publishes it.

Hypothesis draws histories of 2-3 sessions interleaving ``BEGIN`` /
``SELECT`` (``possible``, ``conf``, ``certain``) / ``INSERT`` (certain and
``{'a', 'b'}``) / ``UPDATE`` / ``DELETE`` / ``COMMIT`` / ``ROLLBACK``,
autocommit writes and ``VACUUM`` over two relations.  A model that knows
nothing of the engine - the list of committed states, plus each open
transaction's begin index and its own writes - predicts every answer,
count, refusal and commit outcome, in the manner of the Elle checker
(Kingsbury & Alvaro, VLDB 2020) with the states themselves as the
oracle.  Each history runs on one thread, deterministically, and then
again with its sessions split over two threads of a ``QueryServer`` (the
steps still in history order) as the belt.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import WorldTable
from repro.core.descriptor import Descriptor
from repro.core.txn import TransactionConflict
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.server import QueryServer
from tests.conftest import scattered

RELATIONS = ("r", "s")
#: The relations stored outside the segment policy at the start: a write
#: that changes one leaves every partition of it under the policy (an
#: UPDATE rewrites ``v``, the partition out of it), a VACUUM all of them.
DIRTY = frozenset({"r"})
#: The committed state every history starts from: relation -> (id, v) rows.
INITIAL = {"r": ((0, "a"), (1, "b")), "s": ((0, "c"),)}

ids = st.integers(min_value=0, max_value=2)
values = st.sampled_from(["a", "b", "c"])
relations = st.sampled_from(RELATIONS)
reads = st.tuples(st.sampled_from(["possible", "conf", "certain"]), relations)
writes = st.one_of(
    st.tuples(st.just("insert"), relations, ids, st.one_of(values, st.just(("a", "b")))),
    st.tuples(st.just("update"), relations, ids, values),
    st.tuples(st.just("delete"), relations, ids),
)
#: one unit of a session's program: a transaction, an autocommit
#: statement, or a stray statement the model may expect refused
units = st.one_of(
    st.tuples(
        st.just(("begin",)),
        # as many reads as writes: one_of weighs its flattened branches
        st.lists(st.one_of(writes, reads, reads, reads), min_size=2, max_size=5),
        st.sampled_from([("commit",), ("commit",), ("rollback",)]),
    ).map(lambda t: [t[0], *t[1], t[2]]),
    st.one_of(reads, writes, writes).map(lambda op: [op]),
    st.sampled_from([("vacuum",), ("begin",), ("commit",)]).map(lambda op: [op]),
)


@st.composite
def histories(draw):
    """``(sessions, steps)``: 2-3 sessions' programs of units, interleaved
    by a drawn schedule into one list of ``(session, op)`` steps."""
    n = draw(st.integers(min_value=2, max_value=3))
    programs = [
        [op for unit in draw(st.lists(units, min_size=1, max_size=4)) for op in unit]
        for _ in range(n)
    ]
    steps = []
    while any(programs):
        pending = [s for s in range(n) if programs[s]]
        session = pending[draw(st.integers(0, len(pending) - 1))]
        steps.append((session, programs[session].pop(0)))
    return n, steps


def _build() -> UDatabase:
    """``INITIAL``, each relation partitioned ``id`` | ``v``, auto-indexed;
    ``r``'s ``v`` partition one row per segment (:data:`DIRTY`)."""
    udb = UDatabase(WorldTable())
    for name, rows in INITIAL.items():
        tid = tid_column(name)
        ids = [(Descriptor(), i, (row[0],)) for i, row in enumerate(rows)]
        values = URelation.build(
            [(Descriptor(), i, (row[1],)) for i, row in enumerate(rows)], tid, ["v"], d_width=1
        )
        if name in DIRTY:
            values = scattered(values)
        udb.add_relation(name, ["id", "v"], [URelation.build(ids, tid, ["id"]), values])
    return udb


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
def _alternatives(v) -> Tuple[str, ...]:
    return v if isinstance(v, tuple) else (v,)


def _possible(rows) -> set:
    return {(i, alt) for i, v in rows for alt in _alternatives(v)}


def _certain(rows) -> set:
    # every uncertain insert mints a variable of its own: a pair is in
    # every world only when some row holds it for certain
    return {(i, v) for i, v in rows if not isinstance(v, tuple)}


def _confidences(rows) -> set:
    missing: Dict[Tuple, float] = {}
    for i, v in rows:
        for alt in _alternatives(v):
            p = 1.0 / len(_alternatives(v))
            missing[(i, alt)] = missing.get((i, alt), 1.0) * (1.0 - p)
    return {pair + (round(1.0 - q, 9),) for pair, q in missing.items()}


class Model:
    """Committed states and open transactions; predicts every outcome."""

    def __init__(self) -> None:
        #: (state, relations the publish that made it wrote), oldest first
        self.history: List[Tuple[Dict[str, tuple], frozenset]] = [(dict(INITIAL), frozenset())]
        #: relations a partition of which is outside the segment policy
        self.dirty: set = set(DIRTY)
        #: session -> [begin index, state with its own writes, relations written]
        self.open: Dict[int, list] = {}

    def _publish(self, state, written) -> None:
        self.history.append((state, frozenset(written)))
        self.dirty -= written

    def step(self, session: int, op: tuple):
        kind, txn = op[0], self.open.get(session)
        if kind == "begin":
            if txn is not None:
                return ("refused",)
            self.open[session] = [len(self.history) - 1, self.history[-1][0], set()]
            return ("txn", "open")
        if kind in ("commit", "rollback"):
            if txn is None:
                return ("refused",)
            begun, state, written = self.open.pop(session)
            if kind == "rollback":
                return ("txn", "rolled_back")
            if any(later & written for _, later in self.history[begun + 1 :]):
                return ("conflict",)
            if written:
                self._publish({**self.history[-1][0], **{n: state[n] for n in written}}, written)
            return ("txn", "committed")
        if kind == "vacuum":
            if txn is not None:
                return ("refused",)
            compacted = set(self.dirty)
            if compacted:
                self._publish(self.history[-1][0], compacted)
            return ("vacuum", tuple(sorted(compacted)))
        state = self.history[-1][0] if txn is None else txn[1]
        rows = state[op[1]]
        if kind == "possible":
            return ("rows", _possible(rows))
        if kind == "certain":
            return ("rows", _certain(rows))
        if kind == "conf":
            return ("rows", _confidences(rows))
        if kind == "insert":
            after = rows + ((op[2], op[3]),)
        elif kind == "update":
            after = tuple((i, op[3]) if i == op[2] else (i, v) for i, v in rows)
        else:
            after = tuple((i, v) for i, v in rows if i != op[2])
        count = 1 if kind == "insert" else sum(i == op[2] for i, _ in rows)
        if count:
            changed = {**state, op[1]: after}
            if txn is None:
                self._publish(changed, {op[1]})
            else:
                txn[1] = changed
                txn[2].add(op[1])
        return ("count", count)


def expected_outcomes(steps) -> list:
    model = Model()
    return [model.step(session, op) for session, op in steps]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def _sql(op: tuple) -> str:
    kind = op[0]
    if kind in ("begin", "commit", "rollback", "vacuum"):
        return kind
    if kind in ("possible", "conf", "certain"):
        return f"{kind} (select id, v from {op[1]})"
    if kind == "insert":
        cell = ", ".join(f"'{a}'" for a in _alternatives(op[3]))
        if isinstance(op[3], tuple):
            cell = "{" + cell + "}"
        return f"insert into {op[1]} values ({op[2]}, {cell})"
    if kind == "update":
        return f"update {op[1]} set v = '{op[3]}' where id = {op[2]}"
    return f"delete from {op[1]} where id = {op[2]}"


def _outcome(session, op: tuple):
    """What the engine answers to ``op`` on ``session``, as the model says it."""
    try:
        result = session.execute(_sql(op))
    except TransactionConflict:
        return ("conflict",)
    except ValueError:
        return ("refused",)
    kind = op[0]
    if kind in ("begin", "commit", "rollback"):
        return ("txn", result.status)
    if kind == "vacuum":
        return ("vacuum", result.relations)
    if kind == "conf":
        return ("rows", {row[:-1] + (round(row[-1], 9),) for row in result.rows})
    if kind in ("possible", "certain"):
        return ("rows", set(map(tuple, result.rows)))
    return ("count", result.count)


def run_one_thread(n: int, steps) -> list:
    udb = _build()
    sessions = [udb.session() for _ in range(n)]
    return [_outcome(sessions[session], op) for session, op in steps]


def run_two_threads(n: int, steps) -> list:
    """The history again, session ``i`` driven by thread ``i % 2`` of a
    server's sessions, each step waiting for its turn in history order."""
    server = QueryServer(_build(), workers=2)
    sessions = [server.session() for _ in range(n)]
    outcomes: list = [None] * len(steps)
    turn = [0]
    ready = threading.Condition()

    def drive(parity: int) -> None:
        for index, (session, op) in enumerate(steps):
            if session % 2 != parity:
                continue
            with ready:
                if not ready.wait_for(lambda: turn[0] == index, timeout=30):
                    return
            try:
                outcomes[index] = _outcome(sessions[session], op)
            except Exception as error:  # reported as the step's outcome
                outcomes[index] = ("raised", repr(error))
            with ready:
                turn[0] = index + 1
                ready.notify_all()

    threads = [threading.Thread(target=drive, args=(parity,)) for parity in (0, 1)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        server.close()
    return outcomes


def _check(steps, expected, actual) -> None:
    for index, (step, want, got) in enumerate(zip(steps, expected, actual)):
        assert got == want, (index, step, steps[: index + 1])


@settings(max_examples=150, deadline=None)
@given(histories())
def test_interleaved_sessions_are_snapshot_isolated(history):
    n, steps = history
    expected = expected_outcomes(steps)
    _check(steps, expected, run_one_thread(n, steps))
    _check(steps, expected, run_two_threads(n, steps))


@pytest.mark.parametrize(
    "steps",
    [
        # a lost update: B's write lands between A's BEGIN and A's first
        # write, which derived over A's BEGIN catalog
        [
            (0, ("begin",)),
            (1, ("update", "r", 0, "c")),
            (0, ("insert", "r", 2, "a")),
            (0, ("commit",)),
        ],
        # write skew: each reads the other's relation and writes its own
        [
            (0, ("begin",)),
            (1, ("begin",)),
            (0, ("possible", "s")),
            (1, ("possible", "r")),
            (0, ("delete", "r", 0)),
            (1, ("delete", "s", 0)),
            (0, ("commit",)),
            (1, ("commit",)),
        ],
        # VACUUM writes what it compacts, and a transaction reads its own
        # uncertain insert's variable
        [
            (1, ("update", "s", 0, "a")),
            (0, ("begin",)),
            (0, ("insert", "r", 2, ("a", "b"))),
            (0, ("conf", "r")),
            (1, ("vacuum",)),
            (0, ("certain", "r")),
            (0, ("commit",)),
        ],
    ],
    ids=["lost-update", "write-skew", "vacuum-and-variables"],
)
def test_named_histories(steps):
    expected = expected_outcomes(steps)
    _check(steps, expected, run_one_thread(2, steps))
    _check(steps, expected, run_two_threads(2, steps))
