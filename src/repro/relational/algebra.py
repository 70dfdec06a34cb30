"""Logical relational algebra plans.

Plan nodes are immutable trees.  Each node knows its output
:class:`~repro.relational.schema.Schema` (computed eagerly at construction
so schema errors surface when a query is *built*, not when it runs).

Nodes
-----
``Scan``        a base relation (optionally under an alias)
``Select``      σ — filter by an :class:`Expression`
``Project``     π — column subset/reorder (bag semantics)
``Join``        ⋈ — inner join with an arbitrary predicate
``Product``     × — cartesian product
``Union``       ∪ — bag union of union-compatible inputs
``Difference``  − — set difference
``Distinct``    δ — duplicate elimination
``Rename``      ρ — attribute renaming / requalification
``ConfCompute`` conf — per-value-tuple confidence over a U-relation plan

The U-relations translation of the paper (Figure 4) produces exactly these
operators; the ``possible`` operation maps to ``Distinct(Project(...))``,
and the probabilistic ``conf`` operation (Section 7) maps to
``ConfCompute`` over the translated child.

:func:`evaluate` is the reference every executed answer is checked
against: one branch per node, over :class:`Relation`'s own operations and
bound (interpreted) expressions, sharing nothing with the physical
planner or executor.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .expressions import Expression, conjunction, equijoin_pairs
from .relation import Relation
from .schema import Schema, SchemaError

__all__ = [
    "Plan",
    "Scan",
    "Select",
    "Project",
    "ProjectAs",
    "Extend",
    "Join",
    "SemiJoin",
    "Product",
    "Union",
    "Difference",
    "Distinct",
    "Rename",
    "ConfCompute",
    "evaluate",
]


class Plan:
    """Base class for logical plan nodes."""

    schema: Schema

    @property
    def children(self) -> Tuple["Plan", ...]:
        """Input plans (empty for leaves)."""
        return ()

    def with_children(self, children: Sequence["Plan"]) -> "Plan":
        """Rebuild this node over new children (for rewrite rules)."""
        raise NotImplementedError

    def node_label(self) -> str:
        """One-line description used by EXPLAIN."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.node_label()}{list(self.schema.names)}"


class Scan(Plan):
    """A leaf: scan of a base (already materialized) relation."""

    def __init__(self, relation: Relation, name: str = "", alias: Optional[str] = None):
        self.relation = relation
        self.name = name or "relation"
        self.alias = alias
        self.schema = relation.schema.qualify(alias) if alias else relation.schema

    def with_children(self, children: Sequence[Plan]) -> "Scan":
        if children:
            raise ValueError("Scan has no children")
        return self

    def node_label(self) -> str:
        if self.alias:
            return f"Seq Scan on {self.name} {self.alias}"
        return f"Seq Scan on {self.name}"


class Select(Plan):
    """σ_predicate(child)."""

    def __init__(self, child: Plan, predicate: Expression):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        # bind eagerly to catch unknown columns at build time
        predicate.bind(child.schema)

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Plan]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def node_label(self) -> str:
        return f"Filter: {self.predicate!r}"


class Project(Plan):
    """π_columns(child) — bag semantics."""

    def __init__(self, child: Plan, columns: Sequence[str]):
        self.child = child
        self.columns = list(columns)
        self.schema = child.schema.project(self.columns)

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Plan]) -> "Project":
        (child,) = children
        return Project(child, self.columns)

    def node_label(self) -> str:
        return f"Project: {', '.join(self.columns)}"


class ProjectAs(Plan):
    """Generalized projection: ``[(reference, new_name), ...]``.

    Unlike :class:`Project`, the same input column may appear several times
    under different output names, and every output is renamed.  The
    U-relations union translation uses this to "pump" (duplicate) descriptor
    pairs so both union branches reach the same descriptor width.
    """

    def __init__(self, child: Plan, items: Sequence[Tuple[str, str]]):
        self.child = child
        self.items = [(ref, new) for ref, new in items]
        attrs = []
        for ref, new in self.items:
            source = child.schema[child.schema.resolve(ref)]
            attrs.append(source.renamed(new))
        self.schema = Schema(attrs)

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Plan]) -> "ProjectAs":
        (child,) = children
        return ProjectAs(child, self.items)

    def node_label(self) -> str:
        cols = ", ".join(f"{ref} AS {new}" for ref, new in self.items)
        return f"Project: {cols}"


class Extend(Plan):
    """Extended projection: append computed columns ``[(name, expression)]``.

    The child's columns pass through unchanged; each new column is the value
    of a scalar expression over the child row (commonly ``Lit(None)`` — the
    U-relations union translation adds empty tuple-id columns this way).
    """

    def __init__(self, child: Plan, items: Sequence[Tuple[str, "Expression"]]):
        self.child = child
        self.items = [(name, expr) for name, expr in items]
        attrs = list(child.schema.attributes)
        for name, expr in self.items:
            expr.bind(child.schema)  # eager validation
            attrs.append(child.schema.attributes[0].renamed(name))
        self.schema = Schema(attrs)

    @property
    def children(self) -> Tuple["Plan", ...]:
        return (self.child,)

    def with_children(self, children: Sequence["Plan"]) -> "Extend":
        (child,) = children
        return Extend(child, self.items)

    def node_label(self) -> str:
        cols = ", ".join(f"{expr!r} AS {name}" for name, expr in self.items)
        return f"Extend: {cols}"


class Join(Plan):
    """Inner join with an arbitrary predicate over the concatenated schema."""

    def __init__(self, left: Plan, right: Plan, predicate: Expression):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.schema = left.schema.concat(right.schema)
        predicate.bind(self.schema)

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Plan]) -> "Join":
        left, right = children
        return Join(left, right, self.predicate)

    def node_label(self) -> str:
        return f"Join Filter: {self.predicate!r}"


class SemiJoin(Plan):
    """Left semijoin: rows of ``left`` with at least one ``right`` partner.

    The output schema is the left schema; the predicate ranges over the
    concatenated schema.  Proposition 3.3's reduction program is a cascade
    of these with the U-relations α ∧ ψ conditions.
    """

    def __init__(self, left: Plan, right: Plan, predicate: Expression):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.schema = left.schema
        predicate.bind(left.schema.concat(right.schema))

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Plan]) -> "SemiJoin":
        left, right = children
        return SemiJoin(left, right, self.predicate)

    def node_label(self) -> str:
        return f"SemiJoin Filter: {self.predicate!r}"


class Product(Plan):
    """Cartesian product."""

    def __init__(self, left: Plan, right: Plan):
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Plan]) -> "Product":
        left, right = children
        return Product(left, right)

    def node_label(self) -> str:
        return "Nested Loop (cross product)"


class Union(Plan):
    """Bag union of two union-compatible plans (names from the left)."""

    def __init__(self, left: Plan, right: Plan):
        if len(left.schema) != len(right.schema):
            raise SchemaError(
                f"union arity mismatch: {left.schema.names} vs {right.schema.names}"
            )
        self.left = left
        self.right = right
        self.schema = left.schema

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Plan]) -> "Union":
        left, right = children
        return Union(left, right)

    def node_label(self) -> str:
        return "Append (union all)"


class Difference(Plan):
    """Set difference left − right."""

    def __init__(self, left: Plan, right: Plan):
        if len(left.schema) != len(right.schema):
            raise SchemaError(
                f"difference arity mismatch: {left.schema.names} vs {right.schema.names}"
            )
        self.left = left
        self.right = right
        self.schema = left.schema

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Plan]) -> "Difference":
        left, right = children
        return Difference(left, right)

    def node_label(self) -> str:
        return "SetOp Except"


class Distinct(Plan):
    """Duplicate elimination."""

    def __init__(self, child: Plan):
        self.child = child
        self.schema = child.schema

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Plan]) -> "Distinct":
        (child,) = children
        return Distinct(child)

    def node_label(self) -> str:
        return "HashAggregate (distinct)"


class Rename(Plan):
    """Attribute renaming ρ; ``mapping`` maps old references to new names."""

    def __init__(self, child: Plan, mapping: Dict[str, str]):
        self.child = child
        self.mapping = dict(mapping)
        self.schema = child.schema.rename(self.mapping)

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Plan]) -> "Rename":
        (child,) = children
        return Rename(child, self.mapping)

    def node_label(self) -> str:
        pairs = ", ".join(f"{old}->{new}" for old, new in self.mapping.items())
        return f"Rename: {pairs}"


class ConfCompute(Plan):
    """Tuple-confidence computation over a translated U-relation plan.

    The child produces rows in the canonical U-relation column order —
    ``d_width`` ws-descriptor pairs, then ``tid_count`` tuple-id columns,
    then the value columns (positions matter; names may be alias-qualified).
    The operator groups rows by value tuple and emits one row per distinct
    value tuple with a trailing ``conf`` column: the probability of the
    union of the group's descriptor world-sets against ``world_table``
    (``None``: the world table of the catalog the execution reads).

    Inserted *above* the optimized child plan by the query translator
    (never seen by the rewrite rules — pushing selections or projections
    through a confidence computation would change the probability).
    """

    def __init__(
        self,
        child: Plan,
        d_width: int,
        tid_count: int,
        value_names: Sequence[str],
        world_table,
        method: str = "auto",
        epsilon: float = 0.01,
        delta: float = 0.05,
        seed: int = 0,
    ):
        self.child = child
        self.d_width = int(d_width)
        self.tid_count = int(tid_count)
        self.value_names = list(value_names)
        self.world_table = world_table
        self.method = method
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)
        expected = 2 * self.d_width + self.tid_count + len(self.value_names)
        if len(child.schema) != expected:
            raise SchemaError(
                f"conf child has {len(child.schema)} columns; expected "
                f"{expected} (d_width={self.d_width}, tids={self.tid_count}, "
                f"values={len(self.value_names)})"
            )
        self.schema = Schema(self.value_names + ["conf"])

    @property
    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Plan]) -> "ConfCompute":
        (child,) = children
        return ConfCompute(
            child,
            self.d_width,
            self.tid_count,
            self.value_names,
            self.world_table,
            self.method,
            self.epsilon,
            self.delta,
            self.seed,
        )

    def node_label(self) -> str:
        return f"Confidence: method={self.method}"


def select_all(child: Plan, predicates: Sequence[Expression]) -> Plan:
    """Wrap a plan in a single Select over the conjunction (no-op if empty)."""
    predicates = [p for p in predicates if p is not None]
    if not predicates:
        return child
    return Select(child, conjunction(predicates))


def evaluate(plan: Plan) -> Relation:
    """The answer of a logical plan, evaluated node by node.

    The reference :func:`repro.core.translate.reference_query` answers
    with: it plans nothing physical, so it shares no planner, access
    path, fusion or kernel with the executor.  The leaves must hold their
    relations and a ``ConfCompute`` its world table.  Equi-joins and
    semi-joins hash on their equi-pairs (an optimized translated plan
    does not finish as cross products); every other predicate is bound
    and tested row by row.
    """
    if isinstance(plan, Scan):
        return plan.relation.qualify(plan.alias) if plan.alias else plan.relation
    inputs = [evaluate(child) for child in plan.children]
    if isinstance(plan, Select):
        return inputs[0].select(plan.predicate.bind(plan.child.schema))
    if isinstance(plan, Project):
        return inputs[0].project(plan.columns)
    if isinstance(plan, ProjectAs):
        positions = [plan.child.schema.resolve(ref) for ref, _ in plan.items]
        return Relation(plan.schema, (tuple(row[p] for p in positions) for row in inputs[0]))
    if isinstance(plan, Extend):
        bound = [expr.bind(plan.child.schema) for _, expr in plan.items]
        return Relation(plan.schema, (row + tuple(f(row) for f in bound) for row in inputs[0]))
    if isinstance(plan, Join):
        return Relation(plan.schema, _joined(plan, *inputs, semi=False))
    if isinstance(plan, SemiJoin):
        return Relation(plan.schema, _joined(plan, *inputs, semi=True))
    if isinstance(plan, Product):
        return inputs[0].product(inputs[1])
    if isinstance(plan, Union):
        return inputs[0].union(inputs[1])
    if isinstance(plan, Difference):
        return inputs[0].difference(inputs[1]).distinct()
    if isinstance(plan, Distinct):
        return inputs[0].distinct()
    if isinstance(plan, Rename):
        return inputs[0].rename(plan.mapping)
    if isinstance(plan, ConfCompute):
        return _confidences(plan, inputs[0])
    raise TypeError(f"cannot evaluate logical node {type(plan).__name__}")


def _joined(plan: Any, left: Relation, right: Relation, semi: bool) -> Iterator[Tuple]:
    """The rows of a join (``left ++ right``), or with ``semi`` the left
    rows that have a partner: hashed on the equi-pairs (NULL keys never
    join), the rest of the predicate bound over the concatenated row."""
    pairs, rest = equijoin_pairs(plan.predicate, left.schema, right.schema)
    residual = conjunction(rest).bind(left.schema.concat(right.schema)) if rest else None
    left_key = left.schema.positions([l for l, _ in pairs])
    right_key = right.schema.positions([r for _, r in pairs])
    table: Dict[Tuple, List[Tuple]] = {}
    for row in right:
        key = tuple(row[p] for p in right_key)
        if None not in key:
            table.setdefault(key, []).append(row)
    for lrow in left:
        key = tuple(lrow[p] for p in left_key)
        if None in key:
            continue
        for rrow in table.get(key, ()):
            if residual is None or residual(lrow + rrow):
                yield lrow if semi else lrow + rrow
                if semi:
                    break


def _confidences(plan: ConfCompute, child: Relation) -> Relation:
    """Group every row of a U-relation by its value tuple, then compute
    each group's confidence as the executor's ``Confidence`` does."""
    from ..core.probability import grouped_confidences

    dend = 2 * plan.d_width
    vstart = dend + plan.tid_count
    groups: Dict[Tuple, set] = {}
    for row in child:
        groups.setdefault(row[vstart:], set()).add(row[:dend])
    return grouped_confidences(
        groups, plan.world_table, plan.schema, plan.method, plan.epsilon, plan.delta, plan.seed
    )
