"""The Figure 4 translation ``[[·]]`` — queries on U-relations.

Translates positive relational algebra with ``poss`` and ``merge`` on the
*logical* schema into plain relational algebra plans over the representation
relations (the U-relations and, for certain answers only, the world table).
The translation is size-preserving: a selection becomes a selection, a
projection a projection, a join a join (with the extra ψ condition), merge a
join (α ∧ ψ), and ``poss`` a projection — Theorem 3.5.

Conditions (Figure 4):

* ``α`` — equality of shared tuple-id columns (merge only),
* ``ψ`` — descriptor consistency: for every descriptor pair (c_i, w_i) of
  the left and (c_j, w_j) of the right,
  ``(left.c_i <> right.c_j) OR (left.w_i = right.w_j)``.

A :class:`Translated` object carries the relational plan plus the U-relation
column structure of its output, so results can be wrapped back into
:class:`~repro.core.urelation.URelation` values and fed to further queries.

Descriptor width is decided where a partition is scanned, not where it is
stored.  A stored partition keeps its ``d_width`` and its ⊤ pairs; but a
slot whose variable column holds :data:`~repro.core.descriptor.TOP_VARIABLE`
in every row (:meth:`~repro.relational.relation.Relation.column_all_equal`,
a fact counted once per segment and shared by every version holding it) is
renamed out of the ``c``/``w`` numbering and the kept slots close up, so a
certain partition translates with width 0 and ψ compares only columns that
can differ.  Dropping such a slot is exact: against any pair
``(c_j, w_j)`` its ψ conjunct ``(⊤ <> c_j) OR (w_i = w_j)`` either holds
by the first disjunct or has ``c_j = ⊤`` too, and then both ``w`` are
:data:`~repro.core.descriptor.TOP_VALUE` (⊤'s domain is ``{0}``).  A
cached plan outlives writes, so the fact is one of those its cache entry
checks on every new version it runs over (a changed verdict re-plans).  Two sides that
nothing links - no α, no ψ, no conjunct - become a ``Product``.

Column names at block boundaries: the renamed-out slots are unique to
their alias and partition and never leave the join block that scans them.
``_combine``'s projection drops them, and a block of one unit projects them
away itself, so a union's padding, ``UProject``, ``ConfCompute`` and the
top-level wrap all see exactly :meth:`Translated.canonical_names`.  A
width-0 union branch is padded with a literal ⊤ pair, and a width-0
answer returned as a U-relation gets one, so a
:class:`~repro.core.urelation.URelation` still has ``d_width >= 1``.

Automatic merging: a :class:`~repro.core.query.Rel` leaf contributes the
*minimal* set of vertical partitions covering the attributes the query
actually uses (Example 3.1's rewriting, plus the reduced-database
optimization of Section 3 — single-partition answers need no merge at all).

Join ordering happens here, not after: what Section 3 leaves to "standard
techniques employed in off-the-shelf relational database management
systems" needs a join graph, and the ``Project(Join(left, Rename(right)))``
emitted per join and per merge is a nesting no relational optimizer can
reorder without renaming the positional ``c_i``/``w_i`` columns.  So every
maximal block of ``UJoin`` / ``USelect`` / ``Rel`` nodes is flattened into

* *units* — one scan per partition of each leaf's cover; any other node
  under the block (a ``UProject``, a ``UUnion``, a hand-placed ``UMerge``)
  is translated on its own and is one opaque unit, so the merge placements
  :mod:`repro.core.equivalences` builds stay where they were put; and
* *predicates* — the block's WHERE / ON conjuncts (one over a single unit's
  columns becomes that unit's selection; a literal ``TRUE`` is dropped)
  and, implicitly, tuple-id equality between units of one alias,

and re-assembled left-deep by :func:`repro.relational.optimizer.greedy_order`
(seed, connectedness and cost rule there; here a candidate connects when it
shares a tuple id or completes a conjunct — ψ never connects — and ties
break by alias and partition name, so the plan is a function of the query
and the statistics, not of the order the text lists its tables).  Each
chosen step goes through ``_combine``, which generates α and ψ for
whatever order was chosen, and the block's output is re-projected to the
text's tuple-id and value column order: only the order of the descriptor
pairs differs from a text-order translation.  A block of one unit skips
the loop.  Under ``merge_all`` (plan P1 of Figure 3) a leaf is one unit —
the whole relation, reconstructed from all its partitions in cover order —
so P1's relations are ordered against each other but never taken apart.

Precondition (the paper's "we assume that the input database is always
reduced", made precise): the minimal-cover optimization is sound when every
partition tuple is completable in **every** world its descriptor covers —
i.e. each tuple field either is certain or takes a value for every relevant
variable assignment ("total" fields).  Both the paper's extended dbgen and
:mod:`repro.ugen` only produce such databases; for inputs that merely
satisfy the weaker some-world condition, use
:func:`repro.core.equivalences.translate_early`, which always merges all
partitions and needs no precondition.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..obs import Operators, counter, current_span, current_trace
from ..obs import enabled as obs_enabled
from ..obs import workload as obs_workload

from ..relational.algebra import (
    ConfCompute,
    Distinct,
    Extend,
    Join,
    Plan,
    Product,
    Project,
    ProjectAs,
    Rename,
    Scan,
    Select,
    Union,
    evaluate,
)
from ..relational.expressions import (
    Between,
    Col,
    Comparison,
    Expression,
    InList,
    Lit,
    Or,
    col,
    columns_of,
    conjunction,
    exact_leaf,
    executing,
    frame,
    is_true,
    map_columns,
    split_conjuncts,
    structural_key,
)
from ..relational.optimizer import column_stats, estimate_rows, greedy_order, join_rows
from ..relational import physical as physical_ops
from ..relational import plancache
from ..relational.physical import Confidence
from ..relational.relation import Relation
from .certain import certain_answers
from .descriptor import TOP_VALUE, TOP_VARIABLE, descriptor_columns
from .query import (
    Certain,
    Conf,
    Poss,
    Rel,
    UJoin,
    UMerge,
    UProject,
    UQuery,
    USelect,
    UUnion,
)
from .udatabase import UDatabase
from .urelation import URelation, tid_column

__all__ = [
    "Translated",
    "translate",
    "execute_query",
    "explain_query",
    "query_key",
    "query_structure_key",
    "query_cache_key",
    "relational_core",
    "execute_keyed",
    "reference_query",
    "query_fingerprint",
    "psi_condition",
    "alpha_condition",
]


class Translated:
    """A translated query: a relational plan + U-relation column structure."""

    def __init__(
        self,
        plan: Plan,
        d_width: int,
        tid_names: Sequence[str],
        value_names: Sequence[str],
    ):
        self.plan = plan
        self.d_width = d_width
        self.tid_names: Tuple[str, ...] = tuple(tid_names)
        self.value_names: Tuple[str, ...] = tuple(value_names)

    def canonical_names(self) -> List[str]:
        return descriptor_columns(self.d_width) + list(self.tid_names) + list(self.value_names)

    def __repr__(self) -> str:
        return (
            f"Translated(d_width={self.d_width}, tids={list(self.tid_names)}, "
            f"values={list(self.value_names)})"
        )


# ----------------------------------------------------------------------
# the α and ψ conditions
# ----------------------------------------------------------------------
def psi_condition(
    left_width: int, right_width: int, right_offset: int
) -> Optional[Expression]:
    """The ψ consistency condition between two descriptor encodings.

    ``right_offset`` is the renumbering shift applied to the right operand's
    descriptor columns before the join (its ``c1`` became ``c{offset+1}``).
    """
    clauses: List[Expression] = []
    for i in range(1, left_width + 1):
        for j in range(right_offset + 1, right_offset + right_width + 1):
            clauses.append(
                Or(
                    Comparison("<>", col(f"c{i}"), col(f"c{j}")),
                    Comparison("=", col(f"w{i}"), col(f"w{j}")),
                )
            )
    return conjunction(clauses) if clauses else None


def alpha_condition(shared_tids: Sequence[str], right_suffix: str) -> Optional[Expression]:
    """The α condition: equality of shared (renamed-right) tuple-id columns."""
    clauses = [
        Comparison("=", col(t), col(t + right_suffix)) for t in shared_tids
    ]
    return conjunction(clauses) if clauses else None


# ----------------------------------------------------------------------
# translation
# ----------------------------------------------------------------------
def translate(query: UQuery, udb: UDatabase) -> Translated:
    """Translate a logical query (without top-level poss/certain).

    Uses the default late-materialization strategy: the needed-attribute set
    is seeded from the query's own output attributes, so relation leaves
    merge in only the partitions the query actually touches.  ``udb`` is a
    database or one published :class:`~repro.core.udatabase.Catalog` of
    it; the plan cache translates over the catalog it executes against.
    """
    translator = _Translator(udb)
    needed = set(translator.attributes_of(query))
    return translator.translate(query, needed)


class _Translator:
    """Stateful translation context (attribute binding + needed-set logic)."""

    def __init__(self, udb: UDatabase, merge_all: bool = False):
        self.udb = udb
        #: When True, every Rel leaf reconstructs its relation from *all*
        #: partitions before anything else touches it (the naive plan P1 of
        #: Figure 3): one unit to the join ordering.  When False, a leaf is
        #: the minimal partition cover of the needed attributes, each
        #: partition a unit of its own.
        self.merge_all = merge_all

    # -- attribute binding --------------------------------------------
    def attributes_of(self, query: UQuery) -> Tuple[str, ...]:
        """Logical output attributes of a subquery, with aliasing applied."""
        if isinstance(query, Rel):
            schema = self.udb.logical_schema(query.name)
            return tuple(query.qualified(a) for a in schema.attributes)
        if isinstance(query, (USelect, Poss, Certain)):
            return self.attributes_of(query.children[0])
        if isinstance(query, UProject):
            child_attrs = self.attributes_of(query.child)
            return tuple(_resolve_ref(r, child_attrs) for r in query.attributes)
        if isinstance(query, UJoin):
            return self.attributes_of(query.left) + self.attributes_of(query.right)
        if isinstance(query, UUnion):
            return self.attributes_of(query.left)
        if isinstance(query, UMerge):
            left = self.attributes_of(query.left)
            right = self.attributes_of(query.right)
            return tuple(list(left) + [a for a in right if a not in set(left)])
        raise TypeError(f"unknown query node {type(query).__name__}")

    # -- main recursion -------------------------------------------------
    def translate(self, query: UQuery, needed: Optional[Set[str]]) -> Translated:
        if isinstance(query, (Rel, USelect, UJoin)):
            return self._translate_block(query, needed)
        if isinstance(query, UProject):
            return self._translate_project(query)
        if isinstance(query, UMerge):
            return self._translate_merge(query, needed)
        if isinstance(query, UUnion):
            return self._translate_union(query, needed)
        if isinstance(query, (Poss, Certain)):
            raise ValueError(
                "poss/certain must be at the top level; use execute_query"
            )
        raise TypeError(f"unknown query node {type(query).__name__}")

    # -- join blocks: flatten, push down, order -------------------------
    def _translate_block(self, query: UQuery, needed: Optional[Set[str]]) -> Translated:
        """A maximal block of ``UJoin`` / ``USelect`` / ``Rel`` nodes, its
        joins and partition merges placed together by estimated cardinality
        (see the module docstring)."""
        units: List[Translated] = []
        conjuncts: List[Expression] = []
        self._flatten(query, needed, units, conjuncts)
        # a conjunct over one unit's columns is that unit's selection
        columns = [set(unit.value_names) for unit in units]
        pending: List[Tuple[FrozenSet[str], Expression]] = []
        pushed: Dict[int, List[Expression]] = {}
        for conjunct in conjuncts:
            refs = columns_of(conjunct)
            holder = next((i for i, names in enumerate(columns) if refs <= names), None)
            if holder is None:
                pending.append((refs, conjunct))
            else:
                pushed.setdefault(holder, []).append(conjunct)
        for i, parts in pushed.items():
            unit = units[i]
            units[i] = Translated(
                Select(unit.plan, conjunction(parts)),
                unit.d_width,
                unit.tid_names,
                unit.value_names,
            )
        if len(units) == 1:
            (unit,) = units
            keep = unit.canonical_names()
            if unit.plan.schema.names == keep:
                return unit
            # no _combine projects this scan's hidden ⊤ slots away
            return Translated(
                Project(unit.plan, keep), unit.d_width, unit.tid_names, unit.value_names
            )

        estimate = {unit: estimate_rows(unit.plan) for unit in units}
        owner = {v: unit for unit in reversed(units) for v in unit.value_names}
        stats = functools.lru_cache(maxsize=None)(
            lambda unit, name: column_stats(unit.plan, name)
        )

        def ready(current: Translated, unit: Translated) -> List[Tuple[FrozenSet[str], Expression]]:
            """The pending conjuncts that joining ``unit`` completes."""
            if not pending:
                return []
            available = set(current.value_names) | set(unit.value_names)
            return [item for item in pending if item[0] <= available]

        def rank(current: Translated, unit: Translated) -> Tuple:
            # partitions of one relation hold the same tuple ids: the
            # candidate's own distinct count stands for both sides of α
            pairs = [
                (stats(unit, t),) * 2 for t in unit.tid_names if t in current.tid_names
            ]
            residuals = 0
            for _refs, conjunct in ready(current, unit):
                if _is_column_equality(conjunct):
                    a, b = conjunct.left.name, conjunct.right.name
                    pairs.append((stats(owner[a], a), stats(owner[b], b)))
                else:
                    residuals += 1
            rows = join_rows(
                estimate[current],
                estimate[unit],
                pairs,
                residuals,
                bool(current.d_width and unit.d_width),  # ψ never connects
            )
            return not (pairs or residuals), rows, _tie_break(unit)

        def join(current: Translated, unit: Translated) -> Translated:
            rows = rank(current, unit)[1]
            completed = ready(current, unit)
            for item in completed:
                pending.remove(item)
            shared = [t for t in unit.tid_names if t in current.tid_names]
            extra = [conjunct for _refs, conjunct in completed]
            joined = self._combine(
                current, unit, shared or None, conjunction(extra) if extra else None
            )
            estimate[joined] = rows
            return joined

        joined = greedy_order(
            units, lambda unit: (estimate[unit], _tie_break(unit)), rank, join
        )
        # the block's output keeps the text's tuple-id and value column
        # order (a union zips value columns by position); only the order
        # of the descriptor pairs follows the joins
        tids = tuple(dict.fromkeys(t for unit in units for t in unit.tid_names))
        values = tuple(dict.fromkeys(v for unit in units for v in unit.value_names))
        if tids == joined.tid_names and values == joined.value_names:
            return joined
        keep = descriptor_columns(joined.d_width) + list(tids) + list(values)
        # the last _combine's own projection, re-ordered: no second one above
        return Translated(Project(joined.plan.child, keep), joined.d_width, tids, values)

    def _flatten(
        self,
        query: UQuery,
        needed: Optional[Set[str]],
        units: List[Translated],
        conjuncts: List[Expression],
    ) -> None:
        """Append a block's units (text order) and qualified conjuncts."""
        if isinstance(query, USelect):
            child_needed = None
            if needed is not None:
                child_needed = set(needed) | set(columns_of(query.predicate))
            start = len(units)
            self._flatten(query.child, child_needed, units, conjuncts)
            available = [v for unit in units[start:] for v in unit.value_names]
        elif isinstance(query, UJoin):
            left_needed, right_needed = None, None
            if needed is not None:
                wanted = needed | set(columns_of(query.predicate))
                left_attrs = self.attributes_of(query.left)
                right_attrs = self.attributes_of(query.right)
                left_needed = {r for r in wanted if _matches_any(r, left_attrs)}
                right_needed = {r for r in wanted if _matches_any(r, right_attrs)}
            start = len(units)
            self._flatten(query.left, left_needed, units, conjuncts)
            middle = len(units)
            self._flatten(query.right, right_needed, units, conjuncts)
            left, right = units[start:middle], units[middle:]
            shared_tids = {t for unit in left for t in unit.tid_names} & {
                t for unit in right for t in unit.tid_names
            }
            if shared_tids:
                raise ValueError(
                    f"join operands share tuple-id columns {sorted(shared_tids)}; "
                    "alias one side (self-joins require aliases)"
                )
            shared_values = {v for unit in left for v in unit.value_names} & {
                v for unit in right for v in unit.value_names
            }
            if shared_values:
                raise ValueError(
                    f"join operands share value attributes {sorted(shared_values)}; "
                    "alias the relations to disambiguate"
                )
            available = [v for unit in left + right for v in unit.value_names]
        elif isinstance(query, Rel):
            scans = [
                self._scan_partition(part, query)
                for part in self._partitions_of(query, needed)
            ]
            # merge_all (plan P1): the whole relation, reconstructed in
            # cover order, is one unit
            units.extend([functools.reduce(self._merge, scans)] if self.merge_all else scans)
            return
        else:  # a projection, a union, a hand-placed merge: opaque
            units.append(self.translate(query, needed))
            return
        predicate = _qualify_predicate(query.predicate, available)
        conjuncts.extend(c for c in split_conjuncts(predicate) if not is_true(c))

    def _partitions_of(self, query: Rel, needed: Optional[Set[str]]) -> List[URelation]:
        """The minimal partition cover of a leaf's needed attributes."""
        schema = self.udb.logical_schema(query.name)
        attrs = [query.qualified(a) for a in schema.attributes]
        if needed is None or self.merge_all:
            wanted = list(attrs)
        else:
            wanted = [a for a in attrs if _needed_matches(a, needed)]
            if not wanted:
                wanted = attrs[:1]  # keep the relation observable
        # choose the minimal partition cover (greedy set cover)
        base_wanted = {_base_name(a) for a in wanted}
        return _cover(self.udb.partitions(query.name), base_wanted)

    def _scan_partition(self, part: URelation, query: Rel) -> Translated:
        label = f"u_{query.name}_" + "_".join(part.value_names)
        plan: Plan = Scan(part.relation, name=label)
        tid_old = tid_column(query.name)
        tid_new = tid_column(query.name, query.alias)
        mapping: Dict[str, str] = {}
        # an all-⊤ slot leaves the c/w numbering (the block drops it at
        # its first projection); the kept slots close up behind it
        width = 0
        for k, probe in enumerate(_top_probes(part), 1):
            if part.relation.column_all_equal(*probe):
                renamed = (f"{label}_{tid_new}_c{k}", f"{label}_{tid_new}_w{k}")
            else:
                width += 1
                renamed = (f"c{width}", f"w{width}")
            if renamed[0] != f"c{k}":
                mapping[f"c{k}"], mapping[f"w{k}"] = renamed
        if query.alias:
            if tid_new != tid_old:
                mapping[tid_old] = tid_new
            for a in part.value_names:
                mapping[a] = query.qualified(a)
        if mapping:
            plan = Rename(plan, mapping)
        values = tuple(query.qualified(a) for a in part.value_names)
        return Translated(plan, width, (tid_new,), values)

    def _translate_project(self, query: UProject) -> Translated:
        child_attrs = self.attributes_of(query.child)
        resolved = [_resolve_ref(r, child_attrs) for r in query.attributes]
        child = self.translate(query.child, set(resolved))
        keep = (
            descriptor_columns(child.d_width)
            + list(child.tid_names)
            + [_resolve_ref(r, child.value_names) for r in query.attributes]
        )
        return Translated(
            Project(child.plan, keep),
            child.d_width,
            child.tid_names,
            tuple(_resolve_ref(r, child.value_names) for r in query.attributes),
        )

    def _translate_merge(self, query: UMerge, needed: Optional[Set[str]]) -> Translated:
        left_needed, right_needed = None, None
        if needed is not None:
            left_attrs = self.attributes_of(query.left)
            right_attrs = self.attributes_of(query.right)
            left_needed = {r for r in needed if _matches_any(r, left_attrs)}
            right_needed = {r for r in needed if _matches_any(r, right_attrs)}
        left = self.translate(query.left, left_needed)
        right = self.translate(query.right, right_needed)
        return self._merge(left, right)

    def _merge(self, left: Translated, right: Translated) -> Translated:
        shared = [t for t in left.tid_names if t in set(right.tid_names)]
        if not shared:
            raise ValueError(
                f"merge requires shared tuple ids; got {list(left.tid_names)} "
                f"vs {list(right.tid_names)}"
            )
        return self._combine(left, right, alpha=shared, extra=None)

    def _combine(
        self,
        left: Translated,
        right: Translated,
        alpha: Optional[List[str]],
        extra: Optional[Expression],
    ) -> Translated:
        """Shared machinery of join (α empty) and merge (α on shared tids)."""
        suffix = "__r"
        offset = left.d_width
        # rename the right side's descriptor columns to continue numbering,
        # and suffix any colliding tid / value columns
        mapping: Dict[str, str] = {}
        for i in range(1, right.d_width + 1):
            mapping[f"c{i}"] = f"c{offset + i}"
            mapping[f"w{i}"] = f"w{offset + i}"
        shared_tids = alpha or []
        for t in shared_tids:
            mapping[t] = t + suffix
        shared_values = [v for v in right.value_names if v in set(left.value_names)]
        for v in shared_values:
            mapping[v] = v + suffix
        right_plan: Plan = Rename(right.plan, mapping) if mapping else right.plan

        conditions: List[Expression] = []
        psi = psi_condition(left.d_width, right.d_width, offset)
        alpha_expr = alpha_condition(shared_tids, suffix)
        if alpha_expr is not None and shared_tids:
            conditions.append(alpha_expr)
        if psi is not None:
            conditions.append(psi)
        if extra is not None:
            conditions.append(extra)
        joined: Plan = (
            Join(left.plan, right_plan, conjunction(conditions))
            if conditions
            else Product(left.plan, right_plan)  # two certain sides, nothing links them
        )

        d_width = left.d_width + right.d_width
        tid_names = list(left.tid_names) + [
            t for t in right.tid_names if t not in set(shared_tids)
        ]
        value_names = list(left.value_names) + [
            v for v in right.value_names if v not in set(shared_values)
        ]
        keep = descriptor_columns(d_width) + tid_names + value_names
        plan = Project(joined, keep)
        return Translated(plan, d_width, tid_names, value_names)

    def _translate_union(self, query: UUnion, needed: Optional[Set[str]]) -> Translated:
        left_attrs = self.attributes_of(query.left)
        right_attrs = self.attributes_of(query.right)
        if len(left_attrs) != len(right_attrs):
            raise ValueError(
                f"union arity mismatch: {list(left_attrs)} vs {list(right_attrs)}"
            )
        # union output uses the left names; need all columns positionally
        left = self.translate(query.left, None)
        right = self.translate(query.right, None)
        width = max(left.d_width, right.d_width)
        tids = list(left.tid_names) + [
            t for t in right.tid_names if t not in set(left.tid_names)
        ]
        left_plan = _pad_branch(left, width, tids, list(left.value_names))
        # the right branch's value columns are renamed positionally to the left's
        right_plan = _pad_branch(
            right, width, tids, list(left.value_names), rename_from=list(right.value_names)
        )
        plan = Union(left_plan, right_plan)
        return Translated(plan, width, tids, left.value_names)


# ----------------------------------------------------------------------
# union padding
# ----------------------------------------------------------------------
def _pad_branch(
    branch: Translated,
    width: int,
    tids: List[str],
    value_names: List[str],
    rename_from: Optional[List[str]] = None,
) -> Plan:
    """Bring one union branch to the common (width, tids, values) shape.

    Descriptors are pumped by duplicating the first pair - a literal ⊤
    pair for a branch of width 0; missing tuple-id columns are added as
    NULL columns (the paper's "new empty columns").
    """
    plan = branch.plan
    added = [(t, Lit(None)) for t in tids if t not in set(branch.tid_names)]
    if width and not branch.d_width:
        added += [("c1", Lit(TOP_VARIABLE)), ("w1", Lit(TOP_VALUE))]
    if added:
        plan = Extend(plan, added)
    items: List[Tuple[str, str]] = []
    for i in range(1, width + 1):
        src = i if i <= branch.d_width else 1  # pump pair 1
        items.append((f"c{src}", f"c{i}"))
        items.append((f"w{src}", f"w{i}"))
    for t in tids:
        items.append((t, t))
    sources = rename_from if rename_from is not None else value_names
    for src, dst in zip(sources, value_names):
        items.append((src, dst))
    return ProjectAs(plan, items)


# ----------------------------------------------------------------------
# normalized query keys: one walker, one leaf policy per use
# ----------------------------------------------------------------------
def query_key(query: UQuery, leaf=exact_leaf, conf_knobs: bool = True) -> Tuple:
    """A hashable key of a logical query tree under a leaf policy.

    The one node-type walk behind the plan-cache key
    (:func:`query_structure_key`), the workload fingerprint
    (:func:`query_fingerprint`) and the ad-hoc statement shape
    (:func:`repro.core.prepared.lift_literals`); they differ only in how
    ``leaf`` keys a literal or ``$n`` slot (see
    :func:`~repro.relational.expressions.structural_key`) and in whether
    a ``conf`` node's ``epsilon``/``delta``/``seed`` count as structure
    (``conf_knobs``) or as bindings.  Relation leaves key by (name,
    alias) — the owning database is part of every cache key built from
    this, so names resolve identically on every lookup.  Raises
    ``TypeError`` for unknown node or expression shapes.
    """
    if isinstance(query, Rel):
        return ("rel", query.name, query.alias)
    children = tuple(query_key(child, leaf, conf_knobs) for child in query.children)
    if isinstance(query, (USelect, UJoin)):
        tag = "uselect" if isinstance(query, USelect) else "ujoin"
        return (tag,) + children + (structural_key(query.predicate, leaf),)
    if isinstance(query, UProject):
        return ("uproject",) + children + (query.attributes,)
    if isinstance(query, (UUnion, UMerge, Poss, Certain)):
        return (type(query).__name__.lower(),) + children
    if isinstance(query, Conf):
        knobs = (query.epsilon, query.delta, query.seed) if conf_knobs else ()
        return ("conf",) + children + (query.method,) + knobs
    raise TypeError(f"no structural key for {type(query).__name__}")


def query_structure_key(query: UQuery) -> Tuple:
    """A hashable key identifying a logical query tree up to structure.

    Literals key by value and ``$n`` parameter slots by slot (not value):
    every binding of a prepared query shares one cached plan.  Raises
    ``TypeError`` for unknown node or expression shapes, which callers
    treat as "plan uncached".
    """
    return query_key(query)


def _erased_leaf(node, parent) -> Any:
    """The fingerprint's leaf policy: ``x = 5``, ``x = 7`` and ``x = $1``
    all key identically (``IN`` lists and ``BETWEEN`` bounds as a bare
    ``"?"`` — the digests recorded in workload histories depend on it)."""
    return "?" if isinstance(parent, (InList, Between)) else ("?",)


def key_digest(key) -> str:
    """A short stable hex digest of a (repr-stable) key tuple."""
    import hashlib

    return hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()


def query_fingerprint(query: UQuery) -> Optional[str]:
    """The workload fingerprint of a logical query tree, or ``None``.

    Stable across literal values and ``$n`` bindings, stable across
    processes (no object identity involved), computed once per plan-cache
    entry and threaded through sessions, the worker pool, and slowlog
    entries.  ``None`` means the shape is unfingerprintable (an unknown
    node or expression subclass) — such queries simply stay out of the
    workload history.
    """
    try:
        return key_digest(query_key(query, _erased_leaf, conf_knobs=False))
    except TypeError:
        return None


def _top_probes(part: URelation) -> Tuple[Tuple[int, str], ...]:
    """The all-equal questions translation asks of a partition: is each
    ``c`` column the trivial variable ⊤ in every row (a slot no ψ compares)?"""
    return tuple((2 * k, TOP_VARIABLE) for k in range(part.d_width))


def _scans_under(plan) -> List:
    out = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            out.append(node)
        else:
            stack.extend(node.children)
    return out


def _workload_profile(query: UQuery, plan, key, cost_class: str):
    """What the workload history keeps of a plan, riding its cache record.

    Computed once at plan-cache-entry creation and read when the history
    first sees the fingerprint (which scans and joins an execution ran is
    in its trace's ``operators``).  ``None`` when the query has no
    fingerprint.
    """
    fingerprint = query_fingerprint(query)
    if fingerprint is None:
        return None
    return {
        "fingerprint": fingerprint,
        "plan_key": key_digest(key) if key is not None else None,
        "cost_class": cost_class,
        "relations": tuple(sorted({scan.name for scan in _scans_under(plan)})),
    }


def query_cache_key(query: UQuery, udb: UDatabase):
    """The plan-cache key of this query: ``("uquery", id(udb), structure)``,
    one plan per shape and database; ``None`` for an uncacheable shape (an
    unknown node or expression subclass).  Admission peeks at a request's
    cost class with it: a tree walk, never a translation.
    """
    try:
        structure = query_structure_key(query)
    except TypeError:
        return None
    return ("uquery", id(udb), structure)


def relational_core(query: UQuery) -> UQuery:
    """The query under any ``Certain`` wrappers: what is planned and cached
    (the Lemma 4.3 pipeline on top is not a relational plan)."""
    while isinstance(query, Certain):
        query = query.child
    return query


def _logical_plan(query: UQuery, catalog, world_table):
    """``(plan, wrap)``: the optimized plan of ``query`` (no ``Certain``)
    over ``catalog``, a ``conf`` one reading ``world_table`` (``None``: the
    executing catalog's), and a U-relation answer's structure (``None`` for
    ``poss`` / ``conf``).  Built alike for the executor and the reference.
    """
    from ..relational.optimizer import optimize

    wrap = None
    if isinstance(query, Poss):
        inner = translate(query.child, catalog)
        plan: Plan = Distinct(Project(inner.plan, list(inner.value_names)))
    elif isinstance(query, Conf):
        inner = translate(query.child, catalog)
        plan = inner.plan
    else:
        inner = translate(query, catalog)
        if not inner.d_width:
            # a URelation keeps one descriptor pair: a certain answer's is ⊤
            padded = _pad_branch(inner, 1, list(inner.tid_names), list(inner.value_names))
            inner = Translated(padded, 1, inner.tid_names, inner.value_names)
        plan = inner.plan
        wrap = (inner.d_width, inner.tid_names, inner.value_names, inner.canonical_names())
    plan = optimize(plan)
    if isinstance(query, Conf):
        # inserted above the *optimized* child: the rewrite rules never
        # see (and could not soundly move through) a confidence
        # computation, while the child still gets the full optimizer.
        # Positions stay canonical — optimize() re-projects to the
        # original column order.
        plan = ConfCompute(
            plan,
            inner.d_width,
            len(inner.tid_names),
            list(inner.value_names),
            world_table,
            query.method,
            query.epsilon,
            query.delta,
            query.seed,
        )
    return plan, wrap


def _answer(relation: Relation, physical, wrap):
    """What executing ``physical`` answers: a relation (with its summary
    for ``conf``), or under a ``wrap`` a :class:`URelation`.  The
    reference passes no ``physical``: its ``conf`` answer carries its own
    summary."""
    if wrap is None:
        summary = physical.last_summary if isinstance(physical, Confidence) else None
        if summary is not None:
            from .probability import ConfidenceAnswer

            return ConfidenceAnswer.adopt(relation, summary)
        return relation
    d_width, tid_names, value_names, canonical = wrap
    # normalize output column names to the canonical U-relation layout
    if relation.schema.names != canonical:
        relation = Relation(canonical, relation.rows)
    return URelation(relation, d_width, tid_names, value_names)


def _cached_physical(query: UQuery, udb: UDatabase, key, catalog=None, found=None):
    """The fully planned physical tree for a logical query, via the cache.

    Returns ``(record, was_cached)``: a
    :class:`~repro.relational.plancache.PlanRecord` and whether the cache
    served it.  ``key`` is the query's :func:`query_cache_key`, derived
    by the caller (once per statement, if it is a
    :class:`~repro.core.prepared.PreparedQuery`); ``found``, a lookup
    already made (:func:`~repro.relational.plancache.cached_plan`).

    A hit skips translation, optimization, and physical planning — the
    repeated-query path is executor-only.  ``catalog`` (default
    ``udb.catalog()``) goes in the calling thread's frame: the lookup
    checks the entry's planning facts against its partition versions, a
    miss translates over it, and the execution resolves the plan's slots
    and world table there — so a query never joins one COMMIT's new
    partitions with another relation's old ones.  Callers put back what
    the frame held once they have executed (see
    :mod:`repro.relational.plancache`).
    """
    if catalog is None:
        catalog = udb.catalog()
    frame.catalog = catalog

    def build():
        from ..relational.plancache import PlanRecord, cost_class_of, name_slots, planned_over
        from ..relational.planner import plan_physical

        # no world table: the executing catalog's, staged variables included
        plan, wrap = _logical_plan(query, catalog, None)
        slots = planned_over(
            catalog.versions,
            {
                scan.name: _top_probes(catalog.labels[scan.name])
                for scan in _scans_under(plan)
            },
        )
        physical = name_slots(plan_physical(plan, fuse=True))
        cost_class = cost_class_of(physical)
        profile = _workload_profile(query, plan, key, cost_class)
        # the entry holds the udb: an id-keyed owner must outlive its entries
        return PlanRecord(physical, wrap, profile, cost_class), slots, udb

    return plancache.cached_plan(key, catalog.versions, build, found)


# ----------------------------------------------------------------------
# execution entry points
# ----------------------------------------------------------------------
def execute_query(query: UQuery, udb: UDatabase):
    """Translate and run a query against a U-relational database.

    Returns a plain :class:`Relation` for top-level ``Poss``/``Certain``
    queries, a :class:`~repro.core.probability.ConfidenceAnswer` (a
    relation plus the computation summary) for ``Conf``, and a
    :class:`URelation` otherwise.  It runs the executor: columnar batches
    over the fused plan with access paths; :func:`reference_query` is the
    answer to compare it with.

    The physical plan is served from the prepared-plan cache when the same
    query structure ran before over partitions with the same planning
    facts (a write keeps them), so repeated executions skip translate →
    optimize → plan entirely.  The cache key
    is derived from the tree here, on every call; a
    :class:`~repro.core.prepared.PreparedQuery` derives it once and calls
    :func:`execute_keyed`.
    """
    return execute_keyed(query, udb, query_cache_key(relational_core(query), udb))


_QUERIES = counter("queries_total", "Queries executed by class and plan-cache outcome")
#: (cost class, served from the cache) -> its ``queries_total`` series' inc
_queries: Dict[Tuple[str, bool], Any] = {}


def _actuals(physical, counters: Dict[Any, Tuple[int, int]]) -> dict:
    """``physical.actuals()`` of the execution that counted ``counters``."""
    with executing():
        frame.counters.update(counters)
        return physical.actuals()


def execute_keyed(query: UQuery, udb: UDatabase, key, catalog=None, found=None):
    """:func:`execute_query` for a caller that holds ``key``, the
    :func:`query_cache_key` of the query's :func:`relational_core`,
    reading ``catalog`` (default: ``udb.catalog()``, read once): its
    partitions, and for ``conf`` / ``certain`` its world table; ``found``
    is a lookup already made (:func:`~repro.relational.plancache.cached_plan`).
    Under a trace, the history record waits for the trace's finish step."""
    if catalog is None:
        catalog = udb.catalog()
    if isinstance(query, Certain):
        inner = execute_keyed(query.child, udb, key, catalog, found)
        return certain_answers(inner, catalog.world_table)
    held = frame.catalog
    try:
        record, was_cached = _cached_physical(query, udb, key, catalog, found)
        physical, wrap, profile, cost_class = record
        started = time.perf_counter()
        relation = physical_ops.execute(physical)
        elapsed = time.perf_counter() - started
    finally:
        frame.catalog = held
    count = _queries.get((cost_class, was_cached)) or _queries.setdefault(
        (cost_class, was_cached), _QUERIES.labels(cls=cost_class, cached=str(was_cached).lower())
    )
    count()
    trace = current_trace()
    if trace is None and not obs_enabled():
        return _answer(relation, physical, wrap)
    counters = frame.counters
    # the estimate-vs-actual history reads the accounting the batch
    # iterators already did for this execution's frame — no re-run
    execution = (
        profile,
        elapsed,
        len(relation),
        was_cached,
        physical.estimated_rows,
        physical.actual_rows,
        [(op.estimated_rows, produced) for op, (produced, _batches) in counters.items()],
    )
    if trace is None:
        obs_workload.record_execution(*execution)
    else:
        attrs = trace.root.attrs
        attrs.setdefault("cost_class", cost_class)
        if profile is not None:
            # threads the fingerprint through the session, the worker
            # pool (the trace is shared across it), and slowlog payloads
            attrs.setdefault("fingerprint", profile["fingerprint"])
            attrs.setdefault("plan_key", profile["plan_key"])
        current_span().attrs["operators"] = Operators(
            functools.partial(_actuals, physical, dict(counters))
        )
        trace.executions.append(execution)
    return _answer(relation, physical, wrap)


def reference_query(query: UQuery, udb: UDatabase, catalog=None):
    """What :func:`execute_query` must answer over ``catalog`` (default:
    ``udb.catalog()``): the same optimized logical plan, its leaves and
    ``conf`` holding the catalog's partitions and world table, evaluated
    node by node by :func:`~repro.relational.algebra.evaluate`.  It plans
    nothing physical, reads neither the plan cache nor the frame's
    catalog, and records no query counter or history.
    """
    if catalog is None:
        catalog = udb.catalog()
    if isinstance(query, Certain):
        inner = reference_query(query.child, udb, catalog)
        return certain_answers(inner, catalog.world_table)
    plan, wrap = _logical_plan(query, catalog, catalog.world_table)
    return _answer(evaluate(plan), None, wrap)


def explain_query(query: UQuery, udb: UDatabase, analyze: bool = False, trace: bool = False):
    """EXPLAIN output for a logical query against a U-relational database.

    A plan served from the prepared-plan cache is marked ``(cached)`` on
    its top line; the explained plan is inserted into the cache, so
    explaining then running plans exactly once.  ``Certain`` queries show
    the plan of their relational core (the Lemma 4.3 pipeline on top is
    not a relational plan).

    ``trace=True`` (with ``analyze=True``) returns ``(text, data)`` where
    ``data`` is the structured span/operator tree from
    :func:`repro.relational.explain.explain_analyze` — the machine-readable
    sibling of the rendered text.
    """
    from ..relational.explain import explain as explain_physical
    from ..relational.explain import explain_analyze
    from ..relational.plancache import mark_cached

    query = relational_core(query)
    key = query_cache_key(query, udb)
    held = frame.catalog
    try:
        record, was_cached = _cached_physical(query, udb, key)
        if analyze and trace:
            _result, text, data = explain_analyze(record.physical, trace=True)
            return (mark_cached(text) if was_cached else text), data
        if analyze:
            _result, text = explain_analyze(record.physical)
        else:
            text = explain_physical(record.physical)
    finally:
        frame.catalog = held
    return mark_cached(text) if was_cached else text


# ----------------------------------------------------------------------
# reference resolution helpers
# ----------------------------------------------------------------------
def _base_name(reference: str) -> str:
    return reference.split(".", 1)[-1]


def _resolve_ref(reference: str, available: Sequence[str]) -> str:
    """Resolve a (possibly unqualified) reference among available attributes."""
    if reference in available:
        return reference
    matches = [a for a in available if _base_name(a) == reference]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"attribute {reference!r} not found among {list(available)}")
    raise KeyError(f"attribute {reference!r} is ambiguous among {list(available)}")


def _matches_any(reference: str, attributes: Sequence[str]) -> bool:
    if reference in attributes:
        return True
    return any(_base_name(a) == reference for a in attributes)


def _needed_matches(attribute: str, needed: Set[str]) -> bool:
    if attribute in needed:
        return True
    return _base_name(attribute) in needed


def _qualify_predicate(predicate: Expression, available: Sequence[str]) -> Expression:
    """Rewrite predicate column refs to the exact available value-column names."""
    return map_columns(
        predicate, lambda column: Col(_resolve_ref(column.name, available))
    )


def _tie_break(unit: Translated) -> Tuple:
    """What orders two units of equal estimate: alias and partition (both
    are in the column names), never the position in the query text."""
    return unit.tid_names, unit.value_names


def _is_column_equality(conjunct: Expression) -> bool:
    return (
        isinstance(conjunct, Comparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, Col)
        and isinstance(conjunct.right, Col)
    )


def _cover(partitions: List[URelation], wanted: Set[str]) -> List[URelation]:
    """Greedy minimal cover of wanted attributes by vertical partitions."""
    remaining = set(wanted)
    chosen: List[URelation] = []
    pool = list(partitions)
    while remaining:
        best = max(pool, key=lambda p: len(remaining & set(p.value_names)), default=None)
        if best is None or not (remaining & set(best.value_names)):
            raise ValueError(f"attributes {sorted(remaining)} not covered by any partition")
        chosen.append(best)
        remaining -= set(best.value_names)
        pool.remove(best)
    if not chosen:
        chosen = [partitions[0]]
    return chosen
