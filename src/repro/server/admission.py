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
* applies a **per-class concurrency limit** (a semaphore per class),
* parks excess requests in a **bounded per-class queue** (waiting for a
  slot up to a timeout), and
* **sheds load** — raises :class:`Overloaded` — when the queue is full or
  the wait times out, so a saturated server answers *something* quickly
  instead of collapsing into unbounded queueing.

The controller is engine-agnostic: it hands out admission slots as
context managers and never touches plans or relations.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

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


class _ClassGate:
    __slots__ = ("semaphore", "waiting", "lock", "admitted", "queued", "shed")

    def __init__(self, limit: int):
        self.semaphore = threading.Semaphore(limit)
        self.waiting = 0
        self.lock = threading.Lock()
        self.admitted = 0
        self.queued = 0
        self.shed = 0


class AdmissionController:
    """Hands out per-cost-class admission slots; sheds when saturated."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None):
        self.policy = policy or AdmissionPolicy()
        self._gates: Dict[str, _ClassGate] = {}
        self._gates_lock = threading.Lock()

    def _gate(self, cost_class: str) -> _ClassGate:
        gate = self._gates.get(cost_class)
        if gate is None:
            with self._gates_lock:
                gate = self._gates.get(cost_class)
                if gate is None:
                    gate = _ClassGate(self.policy.limit_for(cost_class))
                    self._gates[cost_class] = gate
        return gate

    @contextmanager
    def admit(self, cost_class: str):
        """Acquire an execution slot for ``cost_class`` (a context manager).

        Fast path: an uncontended class admits with one non-blocking
        semaphore acquire.  Contended: the request queues (bounded) until
        a slot frees or the timeout passes; both overflow and timeout shed
        the request with :class:`Overloaded`.
        """
        gate = self._gate(cost_class)
        # the span covers slot *acquisition* only (the wait a client can
        # see), so it closes before execution and sits as a sibling of the
        # execute span in the trace
        with obs_span("admission", cost_class=cost_class) as sp:
            if gate.semaphore.acquire(blocking=False):
                with gate.lock:
                    gate.admitted += 1
                sp.set(queued=False)
            else:
                sp.set(queued=True)
                with gate.lock:
                    if gate.waiting >= self.policy.queue_limit:
                        gate.shed += 1
                        obs_counter(
                            "admission_shed_total", "Requests shed by class"
                        ).inc(cls=cost_class)
                        raise Overloaded(cost_class, "admission queue full")
                    gate.waiting += 1
                    gate.queued += 1
                started = time.perf_counter()
                try:
                    acquired = gate.semaphore.acquire(
                        timeout=self.policy.queue_timeout
                    )
                finally:
                    waited = time.perf_counter() - started
                    with gate.lock:
                        gate.waiting -= 1
                    obs_histogram(
                        "admission_wait_seconds",
                        "Seconds queued requests waited for a slot",
                    ).observe(waited, cls=cost_class)
                    record_wait(cost_class, waited)
                if not acquired:
                    with gate.lock:
                        gate.shed += 1
                    obs_counter(
                        "admission_shed_total", "Requests shed by class"
                    ).inc(cls=cost_class)
                    raise Overloaded(cost_class, "timed out waiting for a slot")
                with gate.lock:
                    gate.admitted += 1
            obs_counter(
                "admission_admitted_total", "Requests admitted by class"
            ).inc(cls=cost_class)
        try:
            yield
        finally:
            gate.semaphore.release()

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
