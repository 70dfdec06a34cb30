"""Prepared queries: parse/translate/plan once, execute many times.

A :class:`PreparedQuery` wraps a logical query tree (usually parsed from
SQL with ``$1``-style parameter slots) bound to one
:class:`~repro.core.udatabase.UDatabase`.  Its first ``run`` plans the
query through :func:`~repro.core.translate.execute_query`, which inserts
the fully planned physical tree into the prepared-plan cache; every later
``run`` — with *any* parameter binding — hits that entry and goes straight
to the executor.  Parameter values live in a shared mutable store that
generated kernels and index point lookups read at evaluation time, so
rebinding never recompiles or replans anything.

This is the paper's "fast and simple" claim carried to the serving layer:
because translated U-relation queries are purely relational, the entire
per-query fixed cost (parse + translate + optimize + plan) is cacheable,
leaving a repeated query with nothing but executor work.
"""

from __future__ import annotations

import copy
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..obs import request_trace
from ..obs import span as obs_span
from ..relational.expressions import (
    Col,
    Comparison,
    Expression,
    Lit,
    Param,
    exact_leaf,
    iter_subexpressions,
)
from .dml import Delete, DMLResult, Insert, Update, collect_dml_params, execute_dml
from .query import UJoin, UQuery, USelect
from .translate import execute_query, explain_query, query_key

__all__ = [
    "PreparedQuery",
    "PreparedDML",
    "collect_params",
    "lift_literals",
    "text_statement",
]


def _expression_params(expression: Expression, out: List[Param]) -> None:
    if isinstance(expression, Param):
        out.append(expression)
        return
    for child in iter_subexpressions(expression):
        _expression_params(child, out)


def collect_params(query: UQuery) -> Tuple[List[Any], int]:
    """The shared parameter store and slot count of a query tree.

    Every ``$n`` slot produced by one parse shares a single store; a tree
    mixing stores (hand-built from two parses) is rejected — its slots
    could not be bound together consistently.  Returns ``([], 0)`` for a
    parameter-free query.
    """
    params: List[Param] = []

    def walk(node: UQuery) -> None:
        if isinstance(node, (USelect, UJoin)):
            _expression_params(node.predicate, params)
        for child in node.children:
            walk(child)

    walk(query)
    if not params:
        return [], 0
    stores = {id(p.store): p.store for p in params}
    if len(stores) > 1:
        raise ValueError(
            "query mixes parameter slots from different stores; "
            "all $n parameters of one prepared query must come from one parse"
        )
    store = next(iter(stores.values()))
    return store, len(store)


def lift_literals(query: UQuery) -> Tuple[Tuple, List[Tuple[Comparison, str, Any]]]:
    """The shape of an ad-hoc query and the literals it can give up.

    Returns ``(shape_key, sites)``.  A site ``(comparison, side, value)``
    is a non-NULL literal compared by ``=`` with a column, on either side,
    anywhere in a predicate: exactly the literals whose *value* the
    planner never reads (equality selectivity is ``1 / ndistinct``
    whatever the value), so every text of one shape can run one plan with
    the values bound as ``$n`` slots.  Range, ``BETWEEN`` and ``IN``
    literals feed the histogram and ``= NULL`` prunes the plan, so they
    stay in the shape by value.  The key erases a site to its Python type
    name and a ``$n`` slot to its index (every parse has a new store).
    """
    sites: List[Tuple[Comparison, str, Any]] = []

    def leaf(node: Any, parent: Optional[Expression]) -> Any:
        if isinstance(node, Param):
            return ("param", node.index)
        if (
            isinstance(node, Lit)
            and node.value is not None
            and isinstance(parent, Comparison)
            and parent.op == "="
        ):
            side, other = (
                ("left", parent.right) if parent.left is node else ("right", parent.left)
            )
            if isinstance(other, Col):
                sites.append((parent, side, node.value))
                return ("lit", type(node.value).__name__)
        return exact_leaf(node, parent)

    return query_key(query, leaf), sites


class PreparedQuery:
    """A logical query bound to a UDatabase, planned once, run many times."""

    def __init__(self, query: UQuery, udb, sql: Optional[str] = None):
        self.query = query
        self.udb = udb
        self.sql = sql
        self._store, self.parameter_count = collect_params(query)
        #: How many of the trailing slots hold literals lifted out of an
        #: ad-hoc text (:func:`text_statement`) rather than its own ``$n``.
        self.lifted = 0
        #: Guards this statement's ``$n`` store, which kernels and index
        #: lookups read at evaluation time: whoever holds the lock may bind
        #: and execute.  A caller that finds it taken does not wait; it
        #: runs an idle copy (own tree, own store, own cached plan), so
        #: threads and sessions sharing one statement neither serialize nor
        #: read each other's bindings.  One copy per concurrent caller ever
        #: exists; parameter-free statements need neither.
        self._lock = threading.Lock()
        self._idle: List[PreparedQuery] = []

    def bind(self, params: Tuple[Any, ...]) -> None:
        """Write parameter values into the shared store (``$1`` first)."""
        if len(params) != self.parameter_count:
            raise ValueError(
                f"prepared query takes {self.parameter_count - self.lifted} "
                f"parameter(s), got {len(params) - self.lifted}"
            )
        self._store[:] = params

    @contextmanager
    def _bound(self, params: Tuple[Any, ...]) -> Iterator[UQuery]:
        """A tree of this query with ``params`` bound, for the block's
        exclusive use: this statement's own when it is free, else a copy's."""
        if self.parameter_count == 0 and not params:
            yield self.query
        elif self._lock.acquire(blocking=False):
            try:
                self.bind(params)
                yield self.query
            finally:
                self._lock.release()
        else:
            try:
                twin = self._idle.pop()
            except IndexError:
                twin = PreparedQuery(copy.deepcopy(self.query), self.udb, self.sql)
                twin.lifted = self.lifted
            try:
                twin.bind(params)
                yield twin.query
            finally:
                self._idle.append(twin)

    def run(
        self,
        *params: Any,
        optimize: bool = True,
        prefer_merge_join: bool = False,
        mode: str = "columns",
        use_indexes: bool = True,
    ):
        """Bind parameters and execute.

        The first call per (mode, knobs) combination plans and caches; all
        later calls are executor-only.  Returns what
        :func:`~repro.core.translate.execute_query` returns — a plain
        relation for ``possible``/``certain`` statements, a U-relation
        otherwise.

        Thread-safe without waiting: a caller that finds a parameterized
        statement running binds and executes a copy with its own store
        (planned once, then kept for the next concurrent caller).
        """
        with request_trace(sql=self.sql or ""), self._bound(params) as query:
            return execute_query(
                query,
                self.udb,
                optimize=optimize,
                prefer_merge_join=prefer_merge_join,
                mode=mode,
                use_indexes=use_indexes,
            )

    def explain(
        self,
        *params: Any,
        optimize: bool = True,
        prefer_merge_join: bool = False,
        mode: str = "columns",
        use_indexes: bool = True,
        analyze: bool = False,
    ) -> str:
        """EXPLAIN the prepared plan (``(cached)``-marked after first use).

        Parameters are optional for a plain EXPLAIN — the plan does not
        depend on their values — but required when ``analyze=True``
        executes it.  Binds and explains under the lock :meth:`run`
        tries, so a concurrent run never sees this call's bindings.
        """
        with self._lock:
            if params or analyze:
                self.bind(params)
            return explain_query(
                self.query,
                self.udb,
                optimize=optimize,
                prefer_merge_join=prefer_merge_join,
                mode=mode,
                use_indexes=use_indexes,
                analyze=analyze,
            )

    def __repr__(self) -> str:
        label = self.sql if self.sql is not None else type(self.query).__name__
        return f"PreparedQuery({label!r}, params={self.parameter_count})"


class PreparedDML:
    """A parsed DML statement bound to a UDatabase, run many times.

    The symmetric write-side sibling of :class:`PreparedQuery`: parsing
    happens once, ``$n`` slots (in VALUES cells, SET values, and WHERE
    conditions) share one binding store, and repeated ``run`` calls with
    fresh bindings reuse the parse.  The WHERE condition of an UPDATE or
    DELETE executes as an ordinary translated query, so *its* physical
    plan lands in the prepared-plan cache keyed by the shared ``Param``
    objects — repeated parameterized DML is planner-free too.
    """

    def __init__(self, statement, udb, sql: Optional[str] = None):
        self.statement = statement
        self.udb = udb
        self.sql = sql
        params = collect_dml_params(statement)
        if params:
            stores = {id(p.store): p.store for p in params}
            if len(stores) > 1:
                raise ValueError(
                    "statement mixes parameter slots from different stores; "
                    "all $n parameters of one prepared statement must come "
                    "from one parse"
                )
            self._store = next(iter(stores.values()))
        else:
            self._store = []
        self.parameter_count = len(self._store)
        self._lock = threading.Lock()

    def bind(self, params: Tuple[Any, ...]) -> None:
        """Write parameter values into the shared store (``$1`` first)."""
        if len(params) != self.parameter_count:
            raise ValueError(
                f"prepared statement takes {self.parameter_count} parameter(s), "
                f"got {len(params)}"
            )
        self._store[:] = params

    def run(self, *params: Any, **_ignored_knobs: Any) -> DMLResult:
        """Bind parameters and apply the statement to the database.

        Execution knobs (``mode``/``use_indexes``/...) are accepted for
        interface parity with :class:`PreparedQuery` and ignored — the
        write path's own work is not executor-shaped; only its WHERE
        matching runs through the executor, under default knobs.
        """
        with request_trace(sql=self.sql or "", cost_class="dml"):
            if self.parameter_count == 0 and not params:
                return execute_dml(self.statement, self.udb)
            with self._lock:
                self.bind(params)
                return execute_dml(self.statement, self.udb)

    def __repr__(self) -> str:
        label = self.sql if self.sql is not None else type(self.statement).__name__
        return f"PreparedDML({label!r}, params={self.parameter_count})"


def _remember(cache: Dict[Any, Any], key: Any, value: Any, limit: int) -> Any:
    """Insert into a statement map bounded by wholesale clearing (the
    ad-hoc policy: real workloads re-enter on next use).  Returns the
    entry the map holds: an earlier one when another thread won the race."""
    if len(cache) >= limit:
        cache.clear()
    return cache.setdefault(key, value)


def text_statement(
    sql: str,
    udb,
    texts: Optional[Dict[str, Tuple[Any, Tuple[Any, ...]]]],
    lift: bool,
    limit: int,
) -> Tuple[Any, Tuple[Any, ...]]:
    """The statement a SQL text runs as: ``(statement, lifted_values)``.

    The one parse → classify → wrap → cache path behind
    :func:`repro.sql.prepare`, :func:`repro.sql.execute_sql` and
    :class:`~repro.server.session.Session`.  A query becomes a
    :class:`PreparedQuery`, DML a :class:`PreparedDML`; DDL, ``VACUUM``
    and transaction control come back as the parsed record, never cached.

    ``lift`` makes this the ad-hoc path: a query with equality literals
    (:func:`lift_literals`) is looked up by its shape, so texts that
    differ only in those literals share one statement — hence one cached
    plan — and the caller runs it with ``params + lifted_values``.  The
    by-shape map is the database's, shared by all its sessions: which
    connection sends a text does not decide whether its plan is cached.
    Without ``lift`` the statement keeps its literals (the client chose
    its parameters).  ``texts`` is the caller's own memo per exact text,
    which skips the parse; each map holds at most ``limit`` entries.
    """
    from ..sql.parser import parse  # the SQL package imports this module

    with obs_span("parse") as sp:
        hit = texts.get(sql) if texts is not None else None
        if hit is not None:
            sp.set(cached=True, lifted=len(hit[1]), shape_cached=True)
            return hit
        statement = parse(sql)
        lifted: Tuple[Any, ...] = ()
        prepared: Any = None
        shape_cached = False
        if isinstance(statement, UQuery):
            key, sites = lift_literals(statement) if lift else (None, [])
            lifted = tuple(value for _, _, value in sites)
            shapes = udb._statement_shapes
            prepared = shapes.get(key) if lifted else None
            shape_cached = prepared is not None
            if prepared is None:
                if sites:  # the literals become slots after the text's own $n
                    store, own = collect_params(statement)
                    for offset, (comparison, side, _) in enumerate(sites):
                        setattr(comparison, side, Param(own + offset, store))
                prepared = PreparedQuery(statement, udb, sql=sql)
                prepared.lifted = len(lifted)
                if lifted:
                    prepared = _remember(shapes, key, prepared, limit)
        elif isinstance(statement, (Insert, Update, Delete)):
            prepared = PreparedDML(statement, udb, sql=sql)
        sp.set(cached=False, lifted=len(lifted), shape_cached=shape_cached)
        if prepared is None:
            return statement, ()
        if texts is not None:
            _remember(texts, sql, (prepared, lifted), limit)
        return prepared, lifted
