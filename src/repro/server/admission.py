"""Cost-class admission control: limits, a bounded queue, load shedding.

A serving workload is not uniform: a cached point lookup costs tens of
microseconds, a cold six-way join costs milliseconds of planning plus a
large execution.  Admitting both through one unbounded thread pool lets a
burst of heavy queries starve the cheap traffic that makes up most of a
real workload.  The admission layer therefore:

* **classifies** each request by its *plan-cache cost class* — the class
  the prepared-plan cache recorded for the cached physical tree
  (``point`` / ``scan`` / ``join`` / ``heavy``, derived from the operator
  shapes and the optimizer's ``estimate_rows``; see
  :func:`repro.relational.plancache.cost_class_of`).  A query with no
  valid cache entry is ``cold``: it is about to pay full planning, which
  is exactly the work a loaded server should bound hardest.
* applies a **per-class concurrency limit** (a slot count per class),
* parks excess requests in a **bounded per-class queue** (waiting for a
  slot up to a timeout), and
* **sheds load** — raises :class:`Overloaded` — when the queue is full or
  the wait times out, so a saturated server answers *something* quickly
  instead of collapsing into unbounded queueing.

The controller is engine-agnostic: it hands out admission slots as
context managers (each class's gate is its own) and never touches plans
or relations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..obs import counter as obs_counter
from ..obs import histogram as obs_histogram
from ..obs import record_wait
from ..obs import span as obs_span

__all__ = ["AdmissionPolicy", "AdmissionController", "Overloaded", "DEFAULT_LIMITS"]


#: Default per-class concurrent-execution limits.  Cached point lookups
#: are effectively unthrottled; cold planning and heavy joins are scarce.
#: DML has its own class (writers serialize on the database's write lock,
#: so admitting many would only deepen the lock queue — bound it early
#: and keep write bursts from occupying read slots).  Confidence queries
#: (``conf``) are the #P-hard tail of the workload: two at a time keeps
#: them from starving everything else while still overlapping an exact
#: computation with an approximate one.
DEFAULT_LIMITS: Mapping[str, int] = {
    "point": 64,
    "scan": 16,
    "join": 8,
    "heavy": 2,
    "conf": 2,
    "cold": 4,
    "dml": 4,
    # one compaction at a time: VACUUM rewrites partitions under the
    # write lock — a second one could only queue behind the first
    "vacuum": 1,
}


class Overloaded(RuntimeError):
    """The server shed this request (queue full or slot wait timed out)."""

    def __init__(self, cost_class: str, reason: str):
        super().__init__(f"overloaded ({cost_class}): {reason}")
        self.cost_class = cost_class
        self.reason = reason


@dataclass(frozen=True)
class AdmissionPolicy:
    """Tunable admission knobs (immutable; share one across servers)."""

    #: class -> max concurrently executing requests of that class.
    limits: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_LIMITS))
    #: Max requests *waiting* for a slot, per class; beyond this, shed.
    queue_limit: int = 32
    #: Seconds a queued request waits for a slot before being shed.
    queue_timeout: float = 5.0

    def limit_for(self, cost_class: str) -> int:
        try:
            return max(1, int(self.limits[cost_class]))
        except KeyError:
            # an unknown class is treated like cold work: conservative
            return max(1, int(self.limits.get("cold", 4)))


_ADMITTED = obs_counter("admission_admitted_total", "Requests admitted by class")
_SHED = obs_counter("admission_shed_total", "Requests shed by class")
_WAITED = obs_histogram(
    "admission_wait_seconds", "Seconds queued requests waited for a slot"
)


class _ClassGate:
    """One cost class's slots, and the context manager admitting into them:
    ``active`` of ``limit`` slots taken, counted under ``lock``, which the
    queue's condition (``freed``) shares, so an uncontended admission is
    one lock round."""

    __slots__ = (
        "cost_class", "policy", "limit", "active", "waiting", "lock", "freed", "admitted",
        "queued", "shed", "_admitted_total", "_shed_total",
    )

    def __init__(self, cost_class: str, policy: AdmissionPolicy):
        self.cost_class = cost_class
        self.policy = policy
        self.limit = policy.limit_for(cost_class)
        self.active = self.waiting = self.admitted = self.queued = self.shed = 0
        self.lock = threading.Lock()
        self.freed = threading.Condition(self.lock)
        self._admitted_total = _ADMITTED.labels(cls=cost_class)
        self._shed_total = _SHED.labels(cls=cost_class)

    def __enter__(self) -> None:
        # the span covers slot *acquisition* only (the wait a client can
        # see), so it closes before execution and sits as a sibling of the
        # execute span in the trace
        span = obs_span("admission", cost_class=self.cost_class)
        try:
            with self.lock:
                queued = self.active >= self.limit
                span.set(queued=queued)
                if queued:
                    self._wait_for_slot()
                self.active += 1
                self.admitted += 1
            self._admitted_total()
        finally:
            span.finish()

    def __exit__(self, *exc: Any) -> None:
        with self.lock:
            self.active -= 1
            if self.waiting:
                self.freed.notify()

    def _wait_for_slot(self) -> None:
        """Queue (bounded) until a slot frees or the timeout passes; both
        overflow and timeout shed the request with :class:`Overloaded`.
        ``lock`` held."""
        if self.waiting >= self.policy.queue_limit:
            self.shed += 1
            self._shed_total()
            raise Overloaded(self.cost_class, "admission queue full")
        self.waiting += 1
        self.queued += 1
        started = time.perf_counter()
        try:
            acquired = self.freed.wait_for(
                lambda: self.active < self.limit, self.policy.queue_timeout
            )
        finally:
            waited = time.perf_counter() - started
            self.waiting -= 1
            _WAITED.observe(waited, cls=self.cost_class)
            record_wait(self.cost_class, waited)
        if not acquired:
            self.shed += 1
            self._shed_total()
            raise Overloaded(self.cost_class, "timed out waiting for a slot")


class AdmissionController:
    """Hands out per-cost-class admission slots; sheds when saturated."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None):
        self.policy = policy or AdmissionPolicy()
        self._gates: Dict[str, _ClassGate] = {}
        self._gates_lock = threading.Lock()

    def admit(self, cost_class: str) -> _ClassGate:
        """An execution slot for ``cost_class``, as a context manager.

        Fast path: an uncontended class admits with one lock round.
        Contended: the request queues (bounded) until
        a slot frees or the timeout passes; both overflow and timeout shed
        the request with :class:`Overloaded`.
        """
        gate = self._gates.get(cost_class)
        if gate is None:
            with self._gates_lock:
                gate = self._gates.get(cost_class)
                if gate is None:
                    gate = self._gates[cost_class] = _ClassGate(cost_class, self.policy)
        return gate

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-class admitted/queued/shed/waiting counters."""
        out: Dict[str, Dict[str, int]] = {}
        with self._gates_lock:
            gates = dict(self._gates)
        for name, gate in sorted(gates.items()):
            with gate.lock:
                out[name] = {
                    "admitted": gate.admitted,
                    "queued": gate.queued,
                    "shed": gate.shed,
                    "waiting": gate.waiting,
                }
        return out
