"""Prepared queries: parse/translate/plan once, execute many times.

A :class:`PreparedQuery` wraps a logical query tree (usually parsed from
SQL with ``$1``-style parameter slots) bound to one
:class:`~repro.core.udatabase.UDatabase`.  Its first ``run`` plans the
query through :func:`~repro.core.translate.execute_keyed`, which inserts
the fully planned physical tree into the prepared-plan cache; every later
``run`` — with *any* parameter values, from *any* thread — hits that
entry under the key the statement derived once and goes straight to the
executor.  A statement holds no values:
``run`` makes its arguments the ``$n`` values of one execution
(:func:`~repro.relational.expressions.executing`), which generated
kernels and index point lookups read from the calling thread's frame at
evaluation time.  The tree, the plan and the kernels are therefore
shared as they are — by threads, by sessions, and by every statement of
the same shape — and nothing is locked, copied or re-planned to run them
concurrently.

This is the paper's "fast and simple" claim carried to the serving layer:
because translated U-relation queries are purely relational, the entire
per-query fixed cost (parse + translate + optimize + plan) is cacheable,
leaving a repeated query with nothing but executor work.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..obs import request_trace
from ..obs import span as obs_span
from ..relational.expressions import (
    Col,
    Comparison,
    Expression,
    Lit,
    Param,
    exact_leaf,
    executing,
    frame,
    slot_count,
    structural_key,
)
from .dml import Delete, DMLResult, Insert, Update, dml_slot_count, execute_dml
from .query import UJoin, UQuery, USelect
from .translate import (
    execute_keyed,
    explain_query,
    query_cache_key,
    query_key,
    reference_query,
    relational_core,
)

__all__ = [
    "PreparedQuery",
    "PreparedDML",
    "lift_literals",
    "text_statement",
]


def _query_slot_count(query: UQuery) -> int:
    """How many ``$n`` values a query tree takes."""
    own = slot_count(query.predicate) if isinstance(query, (USelect, UJoin)) else 0
    return max([own, *map(_query_slot_count, query.children)])


class _Prepared:
    """What the two statement kinds share: the one arity check."""

    #: How many of the trailing slots hold literals lifted out of an
    #: ad-hoc text (:func:`text_statement`) rather than its own ``$n``.
    lifted = 0

    def checked(self, params: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """``params`` when their count is the statement's, else ``ValueError``.

        Behind ``run``, ``explain``, ``bind`` and
        :meth:`~repro.core.txn.Transaction.run`.  The message counts the
        caller's own ``$n``: values for lifted literals are appended by
        :func:`text_statement`'s callers, not by whoever wrote the text.
        """
        if len(params) == self.parameter_count:
            return params
        own = self.parameter_count - self.lifted
        given = len(params) - self.lifted
        if given < 0:
            raise ValueError(
                f"{self._kind} runs with its {own} parameter(s) followed by "
                f"the {self.lifted} literal(s) lifted out of its text, got "
                f"{len(params)} value(s) in all"
            )
        raise ValueError(f"{self._kind} takes {own} parameter(s), got {given}")


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
    name.
    """
    sites: List[Tuple[Comparison, str, Any]] = []
    return query_key(query, _lifting_leaf(sites)), sites


def _lifting_leaf(sites: List[Tuple[Comparison, str, Any]]):
    """The leaf policy of :func:`lift_literals`, collecting into ``sites``."""

    def leaf(node: Any, parent: Optional[Expression]) -> Any:
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

    return leaf


def _lift_into_slots(sites: List[Tuple[Comparison, str, Any]], own: int) -> Tuple[Any, ...]:
    """Turn the literal ``sites`` into ``$n`` slots after the ``own`` ones;
    returns their values, in slot order."""
    for offset, (comparison, side, _) in enumerate(sites):
        setattr(comparison, side, Param(own + offset))
    return tuple(value for _, _, value in sites)


class PreparedQuery(_Prepared):
    """A logical query bound to a UDatabase, planned once, run many times.

    Immutable once built, and safe to run from any number of threads at
    once: each ``run`` is one execution with its own frame.  The statement
    owns its plan-cache key (:meth:`plan_key`): a key is a function of the
    tree and the database, neither of which changes, so it is derived once,
    here, and every ``run`` — and the server's admission peek and
    coalescing key — read it back.
    """

    _kind = "prepared query"

    def __init__(self, query: UQuery, udb, sql: Optional[str] = None):
        self.query = query
        self.udb = udb
        self.sql = sql
        self.parameter_count = _query_slot_count(query)
        #: What is planned and cached: the query under its ``Certain``
        #: wrappers (a ``certain(q)`` statement runs ``q``'s plan).
        self.core = relational_core(query)
        self._key = query_cache_key(self.core, udb)

    def plan_key(self):
        """The plan-cache key :attr:`core` plans under (``None``:
        uncacheable)."""
        return self._key

    def bind(self, params: Tuple[Any, ...]) -> None:
        """Make ``params`` the calling thread's ``$n`` values (``$1`` first).

        For driving the layers by hand: ``translate`` / ``plan_physical``
        / ``execute(plan)`` / ``plan.actuals()`` on this thread then run
        under these values.  ``run`` and ``explain`` do not need it.
        """
        frame.params = self.checked(tuple(params))

    def run(
        self, *params: Any, mode: str = "columns", use_indexes: bool = True, catalog=None, found=None
    ):
        """Execute with ``params`` as the ``$n`` values, over ``catalog``
        (default: the one published when the execution starts; a
        transaction hands in its own).  ``found`` is the plan-cache lookup
        the caller already made over ``catalog``, as
        :func:`~repro.core.translate.execute_keyed` takes it.

        The first call plans and caches; all later calls are executor-only.
        Returns what :func:`~repro.core.translate.execute_query` returns —
        a plain relation for ``possible``/``certain`` statements, a
        U-relation otherwise.
        """
        # ``mode="rows", use_indexes=False`` runs reference_query instead;
        # the pair stays only because the declared benchmark's
        # ``layer_child.reference_rows`` passes it (ROADMAP 4(c) drops it)
        if (mode, use_indexes) not in (("columns", True), ("rows", False)):
            raise ValueError(f"no plan for mode={mode!r}, use_indexes={use_indexes}")
        with request_trace(sql=self.sql or ""), executing(self.checked(params)):
            if mode == "rows":
                return reference_query(self.query, self.udb, catalog)
            return execute_keyed(self.query, self.udb, self._key, catalog, found)

    def explain(self, *params: Any, analyze: bool = False) -> str:
        """EXPLAIN the prepared plan (``(cached)``-marked after first use).

        Parameters are optional for a plain EXPLAIN — planning never
        reads their values — but required when ``analyze=True`` executes
        the plan.
        """
        with executing(self.checked(params) if params or analyze else ()):
            return explain_query(self.query, self.udb, analyze=analyze)

    def __repr__(self) -> str:
        label = self.sql if self.sql is not None else type(self.query).__name__
        return f"PreparedQuery({label!r}, params={self.parameter_count})"


class PreparedDML(_Prepared):
    """A parsed DML statement bound to a UDatabase, run many times.

    The symmetric write-side sibling of :class:`PreparedQuery`: parsing
    happens once, and each ``run`` is one execution whose values the
    ``$n`` slots (in VALUES cells, SET values, and WHERE conditions) read
    from its frame.  The WHERE condition of an UPDATE or DELETE executes
    as an ordinary translated query under that same frame, so *its*
    physical plan lands in the prepared-plan cache keyed by shape —
    repeated parameterized DML is planner-free too.
    """

    _kind = "prepared statement"

    def __init__(self, statement, udb, sql: Optional[str] = None):
        self.statement = statement
        self.udb = udb
        self.sql = sql
        self.parameter_count = dml_slot_count(statement)

    def run(self, *params: Any) -> DMLResult:
        """Apply the statement to the database with ``params`` as its
        ``$n`` values.  Takes no execution options: the write path's own
        work is not executor-shaped, and its WHERE matching runs through
        the executor under the defaults."""
        with request_trace(sql=self.sql or "", cost_class="dml"):
            with executing(self.checked(params)):
                return execute_dml(self.statement, self.udb)

    def __repr__(self) -> str:
        label = self.sql if self.sql is not None else type(self.statement).__name__
        return f"PreparedDML({label!r}, params={self.parameter_count})"


#: Cap of each statement map (by exact text, by shape).  Ad-hoc workloads
#: produce a distinct text per query; bounding the maps by wholesale
#: clearing keeps such workloads flat while real statements re-enter on
#: next use.
_STATEMENT_CACHE_LIMIT = 256


def _remember(cache: Dict[Any, Any], key: Any, value: Any) -> Any:
    """Insert into a statement map bounded by wholesale clearing.  Returns
    the entry the map holds: an earlier one when another thread won the race."""
    if len(cache) >= _STATEMENT_CACHE_LIMIT:
        cache.clear()
    return cache.setdefault(key, value)


def text_statement(sql: str, udb, lift: bool) -> Tuple[Any, Tuple[Any, ...]]:
    """The statement a SQL text runs as: ``(statement, lifted_values)``.

    The one parse → classify → wrap → cache path behind
    :func:`repro.sql.prepare`, :func:`repro.sql.execute_sql` and
    :class:`~repro.server.session.Session`.  A query becomes a
    :class:`PreparedQuery`, DML a :class:`PreparedDML`; DDL, ``VACUUM``
    and transaction control come back as the parsed record, never cached.

    ``lift`` makes this the ad-hoc path: a query with equality literals
    (:func:`lift_literals`) is looked up by its shape, so texts that
    differ only in those literals share one statement and the caller runs
    it with ``params + lifted_values``.  An ``UPDATE`` / ``DELETE`` gives
    up the equality literals of its ``WHERE`` the same way, so its
    matching query runs one cached plan per condition shape whatever the
    key.  Without ``lift`` the statement
    keeps its literals (the client chose its parameters).  Either way the
    database remembers the statement per exact text (``udb._statements``
    for ad-hoc texts, ``udb._prepared_statements`` for prepared ones),
    which skips the parse.  Statements are shared by every caller of the
    database: which connection sends a text decides neither whether it is
    parsed nor whether its plan is cached.
    """
    texts = udb._statements if lift else udb._prepared_statements
    hit = texts.get(sql)
    if hit is not None:
        obs_span("parse", cached=True, lifted=len(hit[1]), shape_cached=True).finish()
        return hit
    from ..sql.parser import parse  # the SQL package imports this module

    with obs_span("parse") as sp:
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
                # the literals become slots after the text's own $n
                _lift_into_slots(sites, _query_slot_count(statement))
                prepared = PreparedQuery(statement, udb, sql=sql)
                prepared.lifted = len(lifted)
                if lifted:
                    prepared = _remember(shapes, key, prepared)
        elif isinstance(statement, (Insert, Update, Delete)):
            sites = []
            condition = getattr(statement, "condition", None)  # UPDATE / DELETE
            if lift and condition is not None:
                try:
                    structural_key(condition, _lifting_leaf(sites))
                except TypeError:  # an unkeyable condition keeps its literals
                    sites = []
            lifted = _lift_into_slots(sites, dml_slot_count(statement))
            prepared = PreparedDML(statement, udb, sql=sql)
            prepared.lifted = len(lifted)
        sp.set(cached=False, lifted=len(lifted), shape_cached=shape_cached)
        if prepared is None:
            return statement, ()
        return _remember(texts, sql, (prepared, lifted))
