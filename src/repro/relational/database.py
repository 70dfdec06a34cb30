"""A named-relation catalog with a query entry point.

:class:`Database` is the substrate's "RDBMS instance": a mapping from table
names to :class:`~repro.relational.relation.Relation` values plus
convenience methods for building scans, running logical plans, and printing
EXPLAIN output.  The U-relations layer stores its representation relations
(vertical partitions and the world table) in one of these.

Each database owns an :class:`~repro.relational.index.IndexRegistry` of
named secondary indexes (:meth:`Database.create_index` /
:meth:`Database.drop_index`).  Indexes are maintained automatically: when a
table's relation is replaced (``create(..., replace=True)``), every index
defined on it is rebuilt over the new relation, and dropping a table drops
its indexes.  The planner performs cost-based access-path selection against
them — ``explain`` shows ``Index Scan using <name> on <table>`` and
``Index Nested Loop Join`` nodes where they win.

Prepared plans: every :meth:`run`/:meth:`explain` consults the process-wide
prepared-plan cache (:mod:`repro.relational.plancache`) keyed on the
logical plan's structure, this catalog, and the planner knobs, so a
repeated query skips optimization and physical planning entirely.  The
catalog is *versioned* — :attr:`catalog_version` bumps on every mutation
(table create/replace/drop, index DDL, statistics refresh, and the
deferred auto-index builds that materialize during planning) and each
mutation evicts exactly the cached plans that depend on the changed
relation.  ``explain`` marks a plan served from the cache with
``(cached)``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import Plan, Scan
from .explain import explain as _explain
from .explain import explain_analyze as _explain_analyze
from .index import Index, IndexRegistry
from .optimizer import optimize, refresh_statistics
from .plancache import (
    PlanRecord,
    build_key,
    bump_relation,
    cached_plan,
    cost_class_of,
    logical_plan_key,
    mark_cached,
    plan_relations,
    watch_relation,
)
from .planner import Planner
from .physical import execute
from .relation import Relation

__all__ = ["Database"]


class Database:
    """An in-memory database: a catalog of named relations (and indexes)."""

    def __init__(
        self,
        relations: Optional[Dict[str, Relation]] = None,
        registry: Optional[IndexRegistry] = None,
    ):
        self._relations: Dict[str, Relation] = {}
        self.indexes: IndexRegistry = registry if registry is not None else IndexRegistry()
        #: Monotone catalog version: bumped by every mutation that can
        #: change what a fresh plan over this catalog would look like.
        #: The prepared-plan cache's invalidation is *finer* than this
        #: (per-relation), but the version gives tests and operators one
        #: observable number that provably moves on every DDL.
        self.catalog_version = 0
        for name, relation in (relations or {}).items():
            self._relations[name] = relation
            watch_relation(relation, self)

    def _bump_catalog_version(self) -> None:
        """Plan-cache watcher hook: a relation of this catalog mutated."""
        self.catalog_version += 1

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------
    def create(self, name: str, relation: Relation, replace: bool = False) -> None:
        """Register a relation under a name.

        Replacing an existing relation rebuilds every index defined on it
        over the new relation object.  The rebuild happens *before* the
        catalog mutation: if an index definition cannot be satisfied by
        the replacement (a missing column, say), the error leaves both the
        catalog and the registry untouched.  A replacement bumps
        :attr:`catalog_version` and evicts every cached plan that scanned
        the old relation object.
        """
        existed = name in self._relations
        if existed and not replace:
            raise KeyError(f"relation {name!r} already exists")
        old = self._relations.get(name)
        if existed:
            self.indexes.rebuild_table(name, relation)
        self._relations[name] = relation
        watch_relation(relation, self)
        self.catalog_version += 1
        if old is not None and old is not relation:
            bump_relation(old)

    def drop(self, name: str) -> None:
        """Remove a relation (and its indexes) from the catalog."""
        relation = self._relations.pop(name)
        self.indexes.drop_table(name)
        self.catalog_version += 1
        bump_relation(relation)

    def get(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(
                f"relation {name!r} not found; have {sorted(self._relations)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def names(self):
        """All relation names, sorted."""
        return sorted(self._relations)

    def total_rows(self) -> int:
        """Sum of row counts over all catalog relations."""
        return sum(len(r) for r in self._relations.values())

    def size_bytes(self) -> int:
        """Approximate in-memory payload size (for the Figure 9 analogue)."""
        import sys

        total = 0
        for relation in self._relations.values():
            for row in relation.rows:
                total += sys.getsizeof(row)
                for value in row:
                    total += sys.getsizeof(value)
        return total

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def create_index(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        kind: str = "hash",
        replace: bool = False,
    ) -> Index:
        """Create a named secondary index on a catalog relation.

        ``kind`` is ``"hash"`` (equality lookups) or ``"sorted"``
        (binary-search point + range access).  Bumps the catalog version;
        the attach evicts cached plans over the table so the next
        execution re-plans with the new access path.
        """
        index = self.indexes.create(
            name, table, self.get(table), columns, kind=kind, replace=replace
        )
        self.catalog_version += 1
        return index

    def drop_index(self, name: str) -> None:
        """Drop a named index (bumps the catalog version, evicts plans)."""
        self.indexes.drop(name)
        self.catalog_version += 1

    def index_names(self, table: Optional[str] = None) -> List[str]:
        """Names of all indexes, optionally restricted to one table."""
        return self.indexes.names(table)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def analyze(self, table: Optional[str] = None) -> None:
        """Recompute optimizer statistics (one table, or all).

        The PostgreSQL-``ANALYZE`` analogue: drops the cached
        :class:`~repro.relational.statistics.TableStats` so the next
        planning pass recomputes them, bumps :attr:`catalog_version`, and
        evicts cached plans over the refreshed relations (their access
        paths were chosen against the stale estimates).
        """
        targets = [self.get(table)] if table is not None else list(
            self._relations.values()
        )
        for relation in targets:
            refresh_statistics(relation)

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def scan(self, name: str, alias: Optional[str] = None) -> Scan:
        """A Scan plan node over a catalog relation."""
        return Scan(self.get(name), name=name, alias=alias)

    def _cached_physical(
        self,
        plan: Plan,
        optimize_first: bool,
        prefer_merge_join: bool,
        use_indexes: bool,
        fuse: bool,
    ) -> Tuple[PlanRecord, bool]:
        """The plan's :class:`~repro.relational.plancache.PlanRecord`, via
        the prepared-plan cache: ``(record, was_cached)``.

        Uncacheable plan shapes (an unknown node or expression subclass)
        compile fresh every time under a ``None`` key.
        """
        key = build_key(
            lambda: (
                "db-run",
                id(self),
                logical_plan_key(plan),
                optimize_first,
                prefer_merge_join,
                use_indexes,
                fuse,
            )
        )

        def build():
            logical = optimize(plan) if optimize_first else plan
            physical = Planner(
                prefer_merge_join=prefer_merge_join,
                use_indexes=use_indexes,
                fuse=fuse,
            ).compile(logical)
            record = PlanRecord(physical, None, None, cost_class_of(physical))
            return record, plan_relations(plan), (self, plan), None

        return cached_plan(key, build)

    def run(
        self,
        plan: Plan,
        optimize_first: bool = True,
        prefer_merge_join: bool = False,
        mode: str = "columns",
        use_indexes: bool = True,
    ) -> Relation:
        """Optimize, compile, and execute a logical plan.

        ``mode="columns"`` (default) runs the executor over a fused plan;
        ``mode="rows"`` the tuple-at-a-time reference over the unfused
        one.  ``use_indexes=False`` disables access-path selection
        (sequential scans and hash joins only).

        Repeated runs of a structurally identical plan skip optimization
        and planning entirely: the physical tree comes from the
        prepared-plan cache (the fused and the unfused plan are cached
        separately).
        """
        from ..obs import current_span, current_trace

        record, _ = self._cached_physical(
            plan,
            optimize_first,
            prefer_merge_join,
            use_indexes,
            fuse=mode == "columns",
        )
        result = execute(record.physical, mode=mode)
        if current_trace() is not None:  # else the span is the shared no-op
            current_span().set(operators=record.physical.actuals())
        return result

    def explain(
        self,
        plan: Plan,
        optimize_first: bool = True,
        prefer_merge_join: bool = False,
        analyze: bool = False,
        use_indexes: bool = True,
        mode: str = "columns",
    ) -> str:
        """EXPLAIN output for a logical plan (after optimization).

        ``mode`` selects the plan flavor shown: ``"columns"`` (default)
        displays the fused plan — ``Fused Pipeline`` nodes and joins with
        folded ``Output:`` lines — while ``"rows"`` shows the unfused
        operator tree.  With ``analyze=True`` the executor runs that tree
        first and each operator line reports the rows and batches it
        actually produced (fused pipelines report per-pipeline
        counts, since their fused-away operators no longer exist).

        A plan served from the prepared-plan cache is marked ``(cached)``
        on its top line; the explained plan is also *inserted* into the
        cache, so explaining then running a query plans it exactly once.
        """
        record, was_cached = self._cached_physical(
            plan,
            optimize_first,
            prefer_merge_join,
            use_indexes,
            fuse=mode == "columns",
        )
        if analyze:
            _result, text = _explain_analyze(record.physical, mode=mode)
        else:
            text = _explain(record.physical)
        return mark_cached(text) if was_cached else text
