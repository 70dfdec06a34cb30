"""Datasets, operations and request cycles of the five served workloads.

A workload is a deterministic generator of request *cycles*: ``cycle(i)``
returns the requests of cycle ``i`` for the workload's ``--seed``.  The
load generator (``run.py``) sends cycles over one TCP connection; the
traced run (``layer_trace.py``) executes the same cycles in-process.
Both call each request's ``check`` with the decoded responses, so the
correctness checks are part of the same command that measures.

The datasets are fixtures with a fixed ``DATA_SEED``: across generator
seeds the Figure 12 answers differ by +-25 % in size and latency, which
would swamp every regression bound, so ``--seed`` drives the request
sequences (keys, parameters, order within a cycle) and nothing else.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Seed of both dataset fixtures.  Chosen so that Figure 12 Q3 has a
#: non-empty answer at ``SCALE`` (an empty answer checks nothing).
DATA_SEED = 1
#: TPC-H scale of the ``tpch`` dataset; with x = 0.1 this is the paper's
#: high-uncertainty end (about 13 k variables, Q2 answers of 15 KB).
SCALE = 0.002
UNCERTAINTY_X = 0.1
CORRELATION_Z = 0.25
#: Seed rows of the ``events`` dataset.
EVENT_ROWS = 5000

#: Id offset of the writes the traced run replays below the session layer:
#: every traced DML runs twice (stacked, then replayed), on disjoint ids.
SHADOW = 10_000_000

FIG12 = {
    "q1": (
        "possible (select o.orderkey, o.orderdate, o.shippriority "
        "from customer c, orders o, lineitem l "
        "where c.mktsegment = 'BUILDING' and c.custkey = o.custkey "
        "and o.orderkey = l.orderkey "
        "and o.orderdate > '1995-03-15' and l.shipdate < '1995-03-17')"
    ),
    "q2": (
        "possible (select extendedprice from lineitem "
        "where shipdate between '1994-01-01' and '1996-01-01' "
        "and discount between 0.05 and 0.08 and quantity < 24)"
    ),
    "q3": (
        "possible (select n1.name, n2.name "
        "from supplier s, lineitem l, orders o, customer c, "
        "nation n1, nation n2 "
        "where n2.name = 'IRAQ' and n1.name = 'GERMANY' "
        "and c.nationkey = n2.nationkey and s.suppkey = l.suppkey "
        "and o.orderkey = l.orderkey and c.custkey = o.custkey "
        "and s.nationkey = n1.nationkey)"
    ),
}
POINT_SQL = (
    "possible (select o.orderdate, o.totalprice, o.orderstatus "
    "from orders o where o.orderkey = {key})"
)
ORDER_KEYS_SQL = "possible (select orderkey from orders)"
CONF_BIGLINEAGE_SQL = "conf (select l.shipmode from lineitem l where l.quantity < $1)"
CONF_MANYGROUPS_SQL = "conf (select o.orderkey from orders o where o.totalprice > $1)"
#: Karp-Luby over the 41-variable chain.  The engine memoizes a group per
#: (method, epsilon, delta, seed), so each request carries a fresh seed
#: and really samples; epsilon 0.1 keeps one estimate near 20 ms.
CONF_SAMPLED_SQL = "conf (select outcome from chain) method approx epsilon 0.1 seed {seed}"
EVENT_LOOKUP_SQL = "possible (select kind, score, note from events where id = $1)"
EVENT_INSERT_SQL = "insert into events values ($1, $2, $3, $4)"
EVENT_KINDS = ("click", "view", "buy", "ping", "err")


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------
def event_seed_rows(count: int) -> List[Tuple[Any, ...]]:
    """The ``events`` seed rows; a tuple-valued cell lists alternatives.

    10 % of the ``kind`` and of the ``score`` fields are uncertain with
    2-4 alternatives.  Pure data, so the client-side model of the
    ingest workload derives its expected answers from the same rows.
    """
    rng = random.Random(DATA_SEED)
    rows = []
    for i in range(count):
        kind: Any = rng.choice(EVENT_KINDS)
        score: Any = rng.randrange(1000)
        if rng.random() < 0.1:
            kind = tuple(rng.sample(EVENT_KINDS, rng.randint(2, 4)))
        if rng.random() < 0.1:
            score = tuple(rng.sample(range(1000), rng.randint(2, 4)))
        rows.append((i, kind, score, f"n{i}"))
    return rows


def possible_rows(row: Sequence[Any]) -> frozenset:
    """The possible ``(kind, score, note)`` answers of one events row."""
    _id, kind, score, note = row
    kinds = kind if isinstance(kind, tuple) else (kind,)
    scores = score if isinstance(score, tuple) else (score,)
    return frozenset((k, s, note) for k in kinds for s in scores)


def build_dataset(name: str, scale: float = SCALE, event_rows: int = EVENT_ROWS):
    """Build the ``tpch`` or ``events`` fixture; returns ``(udb, timings)``.

    ``timings`` holds ``generate_s`` and ``build_indexes_s``, the two
    parts of a server's set-up time.
    """
    from repro.core import Descriptor, UDatabase, URelation, tid_column
    from repro.sql import UncertainValue
    from repro.ugen import generate_uncertain

    started = time.perf_counter()
    if name == "tpch":
        udb = generate_uncertain(
            scale=scale, x=UNCERTAINTY_X, z=CORRELATION_Z, seed=DATA_SEED
        ).udb
        # one outcome whose lineage is a 41-variable connected chain
        # (assignment space 4^41): only sampling can answer it
        for i in range(41):
            udb.world_table.add_variable(f"chain_v{i}", [1, 2, 3, 4])
        chain = [
            (Descriptor({f"chain_v{i}": 1, f"chain_v{i + 1}": 1}), i + 1, ("hit",))
            for i in range(40)
        ]
        udb.add_relation(
            "chain", ["outcome"], [URelation.build(chain, tid_column("chain"), ["outcome"])]
        )
    elif name == "events":
        udb = UDatabase()
        attributes = ["id", "kind", "score", "note"]
        tid = tid_column("events")
        udb.add_relation(
            "events", attributes, [URelation.build([], tid, [a]) for a in attributes]
        )
        udb.copy_rows(
            "events",
            [
                tuple(UncertainValue(c) if isinstance(c, tuple) else c for c in row)
                for row in event_seed_rows(event_rows)
            ],
        )
        udb.compact()
    else:
        raise ValueError(f"unknown dataset {name!r}")
    generated = time.perf_counter()
    udb.build_indexes()
    return udb, {
        "generate_s": generated - started,
        "build_indexes_s": time.perf_counter() - generated,
    }


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
class Statement(NamedTuple):
    """One wire request: a prepared statement's name, or a SQL text."""

    sql: str
    params: Tuple[Any, ...] = ()
    name: Optional[str] = None


class Request:
    """One timed operation: its statements, its check, its shadow.

    ``check(payloads, lines)`` gets the decoded responses and the raw
    response lines, one per statement, and returns whether the answer is
    correct; it also applies acknowledged writes to the client-side
    model.  ``shadow`` is the same write on disjoint ids, for the traced
    run's replay below the session layer.
    """

    __slots__ = ("op", "statements", "check", "shadow")

    def __init__(
        self,
        op: str,
        statements: Sequence[Statement],
        check: Callable[[List[dict], List[bytes]], bool],
        shadow: Optional["Request"] = None,
    ):
        self.op = op
        self.statements = tuple(statements)
        self.check = check
        self.shadow = shadow


def _all_ok(payloads: List[dict]) -> bool:
    return all(p.get("ok") is True for p in payloads)


class Workload:
    """Base: seeded cycles, repeat-identity bookkeeping, final checks."""

    name = ""
    why = ""
    dataset = "tpch"
    #: Statements prepared on the connection before the first cycle.
    prepared: Dict[str, str] = {}
    #: Cycles of a fixed-work run (``--check-repeat``): about 8 s here.
    nominal_cycles = 1

    def __init__(self, seed: int, event_rows: int = EVENT_ROWS):
        self.seed = seed
        self.event_rows = event_rows
        self._first_answer: Dict[Any, Any] = {}

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{index}")

    def start(self, ask: Callable[[Statement], dict]) -> None:
        """Fetch what the cycles need from the served database."""

    def cycle(self, index: int, shadow: bool = False) -> List[Request]:
        raise NotImplementedError

    def reference_statements(self) -> List[Statement]:
        """Queries whose served answer must equal the reference executor's."""
        return []

    def final_checks(self, ask: Callable[[Statement], dict]) -> List[str]:
        """Failure messages of the end-of-run checks (empty when correct)."""
        return []

    # -- checks shared by the read-only workloads ----------------------
    def same_line(self, key: Any) -> Callable[[List[dict], List[bytes]], bool]:
        """OK, and byte-identical to the first response for ``key``."""

        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            first = self._first_answer.setdefault(key, lines[0])
            return _all_ok(payloads) and lines[0] == first

        return check

    def same_conf(self, key: Any) -> Callable[[List[dict], List[bytes]], bool]:
        """OK, every conf in [0, 1], groups and rows stable for ``key``.

        A conf response carries its own computation time, so repeats are
        compared on rows and group count, not on bytes.
        """

        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            payload = payloads[0]
            if payload.get("ok") is not True:
                return False
            rows = payload["rows"]
            answer = (payload["conf"]["groups"], rows)
            first = self._first_answer.setdefault(key, answer)
            in_range = all(0.0 <= row[-1] <= 1.0 + 1e-9 for row in rows)
            return in_range and len(rows) == answer[0] and answer == first

        return check


class Fig12Serve(Workload):
    name = "fig12_serve"
    why = (
        "prepared Figure 12 Q1-Q3: every request hits the plan cache, so "
        "relational.physical does most of the work and 15 KB answers show render and decode"
    )
    prepared = FIG12
    nominal_cycles = 45

    def cycle(self, index: int, shadow: bool = False) -> List[Request]:
        ops = ["q1", "q2"] * 4 + ["q3"]
        self.rng(index).shuffle(ops)
        return [
            Request(op, [Statement(FIG12[op], (), op)], self.same_line(op)) for op in ops
        ]

    def reference_statements(self) -> List[Statement]:
        return [Statement(sql) for sql in FIG12.values()]


class _PointLookups(Workload):
    """Shared by the two point-lookup workloads: the key universe."""

    lookups_per_cycle = 1

    def start(self, ask: Callable[[Statement], dict]) -> None:
        self.keys = sorted(row[0] for row in ask(Statement(ORDER_KEYS_SQL))["rows"])

    def reference_statements(self) -> List[Statement]:
        sample = random.Random(f"{self.seed}:reference").sample(
            self.keys, min(50, len(self.keys))
        )
        return [Statement(POINT_SQL.format(key=key)) for key in sample]


class PointPrepared(_PointLookups):
    name = "point_prepared"
    why = (
        "prepared indexed lookup with repeating keys: execution is 0.1 ms, so session, "
        "admission, executor, render and the wire dominate; bypasses the planning layers"
    )
    prepared = {"point": POINT_SQL.format(key="$1")}
    lookups_per_cycle = 200
    nominal_cycles = 100

    def cycle(self, index: int, shadow: bool = False) -> List[Request]:
        keys = self.rng(index).choices(self.keys, k=self.lookups_per_cycle)
        sql = self.prepared["point"]
        return [
            Request("point", [Statement(sql, (key,), "point")], self.same_line(key))
            for key in keys
        ]


class PointAdhoc(_PointLookups):
    name = "point_adhoc"
    why = (
        "the same lookup with the key inlined: every text is new and the key set exceeds "
        "the 256-entry plan cache, so lex, parse, translate, optimize and plan dominate"
    )
    lookups_per_cycle = 100
    nominal_cycles = 36

    def start(self, ask: Callable[[Statement], dict]) -> None:
        super().start(ask)
        self.order = list(self.keys)
        random.Random(f"{self.seed}:{self.name}").shuffle(self.order)

    def cycle(self, index: int, shadow: bool = False) -> List[Request]:
        first = index * self.lookups_per_cycle
        keys = [
            self.order[(first + j) % len(self.order)]
            for j in range(self.lookups_per_cycle)
        ]
        return [
            Request(
                "point_adhoc", [Statement(POINT_SQL.format(key=key))], self.same_line(key)
            )
            for key in keys
        ]


class ConfGroups(Workload):
    name = "conf_groups"
    why = (
        "conf over big lineages, many groups and a sampled 41-variable chain: the only "
        "workload that runs core.probability, memo dicts warm, sampling never memoized"
    )
    prepared = {
        "conf_biglineage": CONF_BIGLINEAGE_SQL,
        "conf_manygroups": CONF_MANYGROUPS_SQL,
    }
    nominal_cycles = 120

    def cycle(self, index: int, shadow: bool = False) -> List[Request]:
        rng = self.rng(index)
        requests = [
            Request(
                "conf_biglineage",
                [Statement(CONF_BIGLINEAGE_SQL, (bound,), "conf_biglineage")],
                self.same_conf(("big", bound)),
            )
            for bound in (5, 10, 20)
        ]
        requests += [
            Request(
                "conf_manygroups",
                [Statement(CONF_MANYGROUPS_SQL, (bound,), "conf_manygroups")],
                self.same_conf(("many", bound)),
            )
            for bound in (300000, 250000, 200000, 150000)
        ]
        sample_seed = rng.randrange(1, 10**9)
        requests.append(
            Request(
                "conf_sampled",
                [Statement(CONF_SAMPLED_SQL.format(seed=sample_seed))],
                self.same_conf(("sampled", sample_seed)),
            )
        )
        rng.shuffle(requests)
        return requests


class IngestMixed(Workload):
    name = "ingest_mixed"
    why = (
        "single and batched INSERT, UPDATE, DELETE, a transaction and VACUUM beside point "
        "reads: every write invalidates the read plan, so the next read pays a re-plan"
    )
    dataset = "events"
    prepared = {"insert": EVENT_INSERT_SQL, "lookup": EVENT_LOOKUP_SQL}
    nominal_cycles = 30
    #: Ids one cycle may mint: 8 single rows, a 64-row batch, one txn row.
    stride = 100

    def __init__(self, seed: int, event_rows: int = EVENT_ROWS):
        super().__init__(seed, event_rows)
        #: Client-side model: id -> possible (kind, score, note) answers.
        self.model: Dict[int, frozenset] = {
            row[0]: possible_rows(row) for row in event_seed_rows(event_rows)
        }
        #: Ids whose model entry an acknowledged write touched.
        self.written: set = set()

    # -- model updates, applied when the server acknowledges -----------
    def _put(self, rows: Sequence[Sequence[Any]]) -> None:
        for row in rows:
            self.model[row[0]] = possible_rows(row)
            self.written.add(row[0])

    def _set(self, key: int, position: int, value: Any) -> None:
        self.model[key] = frozenset(
            row[:position] + (value,) + row[position + 1 :] for row in self.model[key]
        )
        self.written.add(key)

    def _drop(self, key: int) -> None:
        self.model[key] = frozenset()
        self.written.add(key)

    def _matches(self, key: int, payload: dict) -> bool:
        rows = payload["rows"]
        return len(rows) == len(self.model[key]) and set(map(tuple, rows)) == self.model[key]

    # -- request builders ----------------------------------------------
    def _lookup(self, op: str, key: int) -> Request:
        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            return _all_ok(payloads) and self._matches(key, payloads[0])

        return Request(op, [Statement(EVENT_LOOKUP_SQL, (key,), "lookup")], check)

    def _insert(self, row: Tuple[Any, ...]) -> Request:
        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            if not (_all_ok(payloads) and payloads[0].get("count") == 1):
                return False
            self._put([row])
            return True

        return Request("insert", [Statement(EVENT_INSERT_SQL, row, "insert")], check)

    def _batch_insert(self, rows: List[Tuple[Any, ...]]) -> Request:
        def cell(value: Any) -> str:
            if isinstance(value, tuple):
                return "{" + ", ".join(cell(v) for v in value) + "}"
            return f"'{value}'" if isinstance(value, str) else str(value)

        values = ", ".join("(" + ", ".join(cell(c) for c in row) + ")" for row in rows)

        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            if not (_all_ok(payloads) and payloads[0].get("count") == len(rows)):
                return False
            self._put(rows)
            return True

        return Request(
            "batch_insert", [Statement(f"insert into events values {values}")], check
        )

    def _update(self, key: int, note: str) -> Request:
        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            if not (_all_ok(payloads) and payloads[0].get("count", 0) >= 1):
                return False
            self._set(key, 2, note)
            return True

        sql = f"update events set note = '{note}' where id = {key}"
        return Request("update", [Statement(sql)], check)

    def _delete(self, key: int) -> Request:
        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            if not (_all_ok(payloads) and payloads[0].get("count") == 1):
                return False
            self._drop(key)
            return True

        return Request("delete", [Statement(f"delete from events where id = {key}")], check)

    def _txn(self, row: Tuple[Any, ...], key: int, score: int) -> Request:
        def check(payloads: List[dict], lines: List[bytes]) -> bool:
            if not (_all_ok(payloads) and payloads[-1]["txn"]["status"] == "committed"):
                return False
            self._put([row])
            self._set(key, 1, score)
            return True

        return Request(
            "txn",
            [
                Statement("begin"),
                Statement(EVENT_INSERT_SQL, row, "insert"),
                Statement(f"update events set score = {score} where id = {key}"),
                Statement("commit"),
            ],
            check,
        )

    def cycle(self, index: int, shadow: bool = False) -> List[Request]:
        rng = self.rng(index)
        base = self.event_rows + index * self.stride

        def seed_id() -> int:
            return rng.randrange(self.event_rows)

        def fresh_row(key: int) -> Tuple[Any, ...]:
            return (key, rng.choice(EVENT_KINDS), rng.randrange(1000), f"w{key}")

        def with_shadow(build: Callable[[int], Request]) -> Request:
            request = build(0)
            if shadow:
                request.shadow = build(SHADOW)
            return request

        def vacuum_ok(payloads: List[dict], lines: List[bytes]) -> bool:
            return _all_ok(payloads) and "vacuum" in payloads[0]

        # VACUUM first, so that the segment stack is at its highest at the
        # end of a cycle, where the segment counters are sampled
        requests = [Request("vacuum", [Statement("vacuum events")], vacuum_ok)]
        for j in range(8):
            row = fresh_row(base + j)
            requests.append(
                with_shadow(lambda off, row=row: self._insert((row[0] + off,) + row[1:]))
            )
            requests.append(self._lookup("read_after_write", seed_id()))
            requests.append(self._lookup("read_cached", seed_id()))
            requests.append(self._lookup("read_cached", seed_id()))
        batch = [fresh_row(base + 10 + j) for j in range(64)]
        batch = [
            (r[0], ("click", "view"), r[2], r[3]) if j % 8 == 0 else r
            for j, r in enumerate(batch)
        ]
        requests.append(
            with_shadow(
                lambda off: self._batch_insert([(r[0] + off,) + r[1:] for r in batch])
            )
        )
        updated = seed_id()
        # the shadow update rewrites the same seed row again: idempotent
        requests.append(with_shadow(lambda off: self._update(updated, f"u{index}")))
        requests.append(with_shadow(lambda off: self._delete(base + off)))
        txn_row = fresh_row(base + 80)
        txn_key, txn_score = seed_id(), rng.randrange(1000)
        requests.append(
            with_shadow(
                lambda off: self._txn((txn_row[0] + off,) + txn_row[1:], txn_key, txn_score)
            )
        )
        return requests

    def final_checks(self, ask: Callable[[Statement], dict]) -> List[str]:
        """Every acknowledged write, read back and compared with the model."""
        failures = []
        payload = ask(
            Statement(
                "possible (select id, kind, score, note from events "
                f"where id >= {self.event_rows})"
            )
        )
        served: Dict[int, set] = {}
        for row in payload["rows"]:
            served.setdefault(row[0], set()).add(tuple(row[1:]))
        expected = {
            key: set(rows)
            for key, rows in self.model.items()
            if key >= self.event_rows and rows
        }
        if served != expected:
            wrong = {
                k for k in set(served) | set(expected) if served.get(k) != expected.get(k)
            }
            failures.append(
                f"inserted rows differ from the model on {len(wrong)} ids, "
                f"e.g. {sorted(wrong)[:5]}"
            )
        for key in sorted(k for k in self.written if k < self.event_rows):
            if not self._matches(key, ask(Statement(EVENT_LOOKUP_SQL, (key,), "lookup"))):
                failures.append(f"seed row {key} differs from the model after its writes")
        return failures


WORKLOADS = {
    cls.name: cls for cls in (Fig12Serve, PointPrepared, PointAdhoc, ConfGroups, IngestMixed)
}


def statement_kind(sql: str) -> str:
    """``query``, ``dml``, ``txn`` or ``vacuum``, from the first word."""
    word = sql.lstrip().split(None, 1)[0].lower()
    if word in ("insert", "update", "delete"):
        return "dml"
    if word in ("begin", "commit", "rollback"):
        return "txn"
    return "vacuum" if word == "vacuum" else "query"


__all__ = [
    "DATA_SEED",
    "SCALE",
    "UNCERTAINTY_X",
    "CORRELATION_Z",
    "EVENT_ROWS",
    "SHADOW",
    "Statement",
    "Request",
    "Workload",
    "WORKLOADS",
    "build_dataset",
    "statement_kind",
]
