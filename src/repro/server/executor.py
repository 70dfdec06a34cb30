"""The concurrent executor: a worker pool plus single-flight coalescing.

Cached physical plans are **re-entrant** — operators rebuild their probe
tables, kernels, and cursors per execution, and relations are immutable
values — so one plan object can execute on N worker threads at once with
no coordination.  That is the whole point of PR 4's prepared-plan cache:
repeated queries from many clients cost planning *zero* times and
executor work N times.  This module supplies the N.

Two mechanisms:

* **Worker pool.**  Requests run on a fixed ``ThreadPoolExecutor``; the
  submitting thread (a TCP connection handler, or a caller of the
  in-process API) blocks on the future, so socket I/O and result
  serialization of one client overlap the executor work of the others.

* **Single-flight coalescing.**  Hot serving traffic is dominated by
  *identical* requests: the same cached query, the same bindings.  When a
  request arrives while an identical one (same plan-cache key, same
  parameters, same catalog) is already executing, the newcomer
  does not execute at all — it waits on the in-flight execution's future
  and receives the same immutable result relation.  This is the classic
  thundering-herd guard (memcache lease / Go ``singleflight``): under a
  GIL, where K threads re-computing one answer cannot finish faster than
  one thread computing it once, coalescing is *the* mechanism that makes
  K clients cost ~1 execution.  Soundness: results are immutable, and a
  request only joins an execution over the very catalog it reads — the
  one published when it arrived, or its transaction's (the catalog of
  its ``BEGIN`` with its own writes in) — so a transaction's read never
  joins a published reader's, and no read joins one from before a write.

The executor never parses, classifies, or admits; it runs callables.  The
:class:`~repro.server.server.QueryServer` composes it with the admission
layer and the session layer.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..obs import counter as obs_counter

__all__ = ["ConcurrentExecutor"]

_executed = obs_counter("executor_executed_total", "Executions scheduled on the pool").labels()
_coalesced = obs_counter(
    "executor_coalesced_total", "Requests that joined an identical in-flight execution"
).labels()


class ConcurrentExecutor:
    """Runs query callables on a pool, coalescing identical in-flight work."""

    def __init__(self, workers: int = 4, coalesce: bool = True):
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-serve"
        )
        self.coalesce = coalesce
        self._inflight: Dict[Hashable, Future] = {}
        self._lock = threading.Lock()
        self._executed = 0
        self._coalesced = 0
        self._closed = False

    # ------------------------------------------------------------------
    def peek(self, key: Optional[Tuple[Hashable, ...]]) -> Optional[Future]:
        """The in-flight future for ``key``, or None.

        The server probes this *before* admission control: joining an
        execution that is already running consumes no executor or
        admission resources, so coalesced waiters must not occupy the
        (deliberately scarce) heavy-class slots while they wait.
        """
        if not self.coalesce or key is None:
            return None
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self._coalesced += 1
        if future is not None:
            _coalesced()
        return future

    def submit(
        self, fn: Callable[[], Any], key: Optional[Tuple[Hashable, ...]] = None
    ) -> Future:
        """Schedule ``fn`` on the pool, returning its future.

        ``key`` identifies the request for coalescing — callers pass
        ``(plan-cache key, params, catalog)`` or ``None`` to
        disable coalescing for this request (uncacheable shapes,
        unhashable parameters, non-read statements).  When an identical
        key is in flight, the existing future is returned and nothing new
        is scheduled.
        """
        if self._closed:
            raise RuntimeError("executor is shut down")
        if not self.coalesce or key is None:
            with self._lock:
                self._executed += 1
            _executed()
            return self._pool.submit(fn)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._coalesced += 1
            else:
                future = Future()
                self._inflight[key] = future
                self._executed += 1
        if existing is not None:
            _coalesced()
            return existing
        _executed()

        def leader() -> None:
            try:
                result = fn()
            except BaseException as error:  # propagate to every waiter
                with self._lock:
                    self._inflight.pop(key, None)
                future.set_exception(error)
            else:
                with self._lock:
                    self._inflight.pop(key, None)
                future.set_result(result)

        try:
            self._pool.submit(leader)
        except BaseException as error:
            # the pool refused (e.g. a concurrent shutdown): the flight
            # must not linger in _inflight, and anyone who already peeked
            # the future must be released with the error, not a hang
            with self._lock:
                self._inflight.pop(key, None)
            future.set_exception(error)
            raise
        return future

    def run(
        self, fn: Callable[[], Any], key: Optional[Tuple[Hashable, ...]] = None
    ) -> Any:
        """Synchronous :meth:`submit` — blocks until the result is ready."""
        return self.submit(fn, key).result()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "executed": self._executed,
                "coalesced": self._coalesced,
                "inflight": len(self._inflight),
            }

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ConcurrentExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
