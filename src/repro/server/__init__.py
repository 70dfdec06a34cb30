"""``repro.server`` — the concurrent query-serving subsystem.

The serving stack the ROADMAP's north star asks for, built on PR 4's
prepared-plan cache (re-entrant cached physical plans, ``$n`` prepared
statements, catalog-version invalidation):

* :class:`~repro.server.session.Session` — per-connection prepared
  statements and bindings on one shared UDatabase, with optimistic
  snapshot reads (no ``BEGIN`` needed),
* :class:`~repro.server.executor.ConcurrentExecutor` — cached plans on a
  worker pool, identical in-flight requests coalesced single-flight,
* :class:`~repro.server.admission.AdmissionController` — per-cost-class
  concurrency limits with a bounded queue and load shedding, classified
  by the plan cache (cached point lookup vs. cold multi-way join),
* :class:`~repro.server.server.QueryServer` — the in-process API and the
  newline-JSON TCP frontend (``python -m repro.server``).

Every statement a session or server runs goes through the one executor
(:func:`repro.relational.physical.execute`, ``mode="columns"``, indexes
on); the server has no execution options of its own.

Quick start::

    from repro.server import QueryServer

    server = QueryServer(udb, workers=8)
    session = server.session()
    session.prepare("by_type", "possible (select id from r where type = $1)")
    answer = session.execute_prepared("by_type", "Tank")
"""

from .admission import AdmissionController, AdmissionPolicy, Overloaded
from .executor import ConcurrentExecutor
from .server import QueryServer, TCPHandle
from .session import Session, SnapshotChanged

__all__ = [
    "QueryServer",
    "TCPHandle",
    "Session",
    "SnapshotChanged",
    "AdmissionController",
    "AdmissionPolicy",
    "Overloaded",
    "ConcurrentExecutor",
]
