"""The logical plan a physical operator tree computes, for comparing an
execution with :func:`~repro.relational.algebra.evaluate`, and a logical
plan over relations that list no index definitions.

:func:`logical_of` has one branch per concrete operator: an index scan is
the selection its access mode and residual make, a join the ``Join`` of
its equi-pairs and residual (an index join's inner side the scan of its
indexed relation under its probe filters), a folded output a
``ProjectAs``.  :func:`unindexed` gives the planner no access path to
choose, so every scan is sequential and every equi-join hashed.
"""

from __future__ import annotations

from repro.relational import physical as physical_module
from repro.relational import planner as planner_module
from repro.relational.algebra import (
    ConfCompute,
    Difference,
    Distinct,
    Extend,
    Join,
    Product,
    Project,
    ProjectAs,
    Rename,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from repro.relational.expressions import Comparison, Param, col, conjunction, lit
from repro.relational.physical import (
    Append,
    Confidence,
    Except,
    ExtendOp,
    Filter,
    FusedPipeline,
    HashDistinct,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    NestedLoopJoin,
    Projection,
    ProjectionAs,
    SemiJoinOp,
    SeqScan,
)
from repro.relational.relation import Relation


def _as_expression(value):
    return value if isinstance(value, Param) else lit(value)


def _emitting(plan, positions, schema):
    """``plan`` under a physical operator's folded output ``positions``."""
    if positions is None:
        return plan
    names = plan.schema.names
    return ProjectAs(plan, [(names[p], new) for p, new in zip(positions, schema.names)])


def _index_access(scan: IndexScan):
    """The selection an index scan's access mode and residual make."""
    names = [scan.schema.names[p] for p in scan.index.positions]
    # an index holds no row with a NULL in its key
    conditions = [~col(n).is_null() for n in names]
    if scan.point is not physical_module._NO_POINT:
        keys = scan.point if len(names) > 1 else (scan.point,)
        conditions += [col(n).eq(_as_expression(k)) for n, k in zip(names, keys)]
    if scan.lower is not None:
        op = ">=" if scan.lower_inclusive else ">"
        conditions.append(Comparison(op, col(names[0]), _as_expression(scan.lower)))
    if scan.upper is not None:
        op = "<=" if scan.upper_inclusive else "<"
        conditions.append(Comparison(op, col(names[0]), _as_expression(scan.upper)))
    if scan.residual is not None:
        conditions.append(scan.residual)
    return Select(Scan(scan.relation, scan.name, scan.alias), conjunction(conditions))


def _equated(pairs, residual):
    parts = [col(a).eq(col(b)) for a, b in pairs]
    return conjunction(parts + ([residual] if residual is not None else []))


def logical_of(plan):
    """The logical plan a physical operator tree computes, node by node."""
    if isinstance(plan, SeqScan):
        return Scan(plan.relation, plan.name, plan.alias)
    if isinstance(plan, IndexScan):
        return _index_access(plan)
    if isinstance(plan, FusedPipeline):
        source = logical_of(plan.source)
        if plan.predicate is not None:
            source = Select(source, plan.predicate)
        return _emitting(source, plan.positions, plan.schema)
    if isinstance(plan, Filter):
        return Select(logical_of(plan.child), plan.predicate)
    if isinstance(plan, Projection):
        return Project(logical_of(plan.child), plan.columns)
    if isinstance(plan, ProjectionAs):
        return ProjectAs(logical_of(plan.child), plan.items)
    if isinstance(plan, ExtendOp):
        return Extend(logical_of(plan.child), plan.items)
    if isinstance(plan, planner_module._RenameOp):
        return Rename(logical_of(plan.child), plan.mapping)
    if isinstance(plan, HashJoin):
        join = Join(
            logical_of(plan.left), logical_of(plan.right), _equated(plan.pairs, plan.residual)
        )
        return _emitting(join, plan.output_positions, plan.schema)
    if isinstance(plan, IndexNestedLoopJoin):
        inner = Scan(plan.relation, plan.name)
        for predicate, _schema in plan.inner_filters:
            inner = Select(inner, predicate)
        outer = logical_of(plan.outer)
        condition = _equated(plan.pairs, plan.residual)
        sides = (inner, outer) if plan.flipped else (outer, inner)
        return _emitting(Join(*sides, condition), plan.output_positions, plan.schema)
    if isinstance(plan, NestedLoopJoin):
        left, right = logical_of(plan.left), logical_of(plan.right)
        if plan.predicate is None:
            return Product(left, right)
        return Join(left, right, plan.predicate)
    if isinstance(plan, SemiJoinOp):
        return SemiJoin(logical_of(plan.left), logical_of(plan.right), plan.predicate)
    if isinstance(plan, HashDistinct):
        return Distinct(logical_of(plan.child))
    if isinstance(plan, Append):
        return Union(logical_of(plan.left), logical_of(plan.right))
    if isinstance(plan, Except):
        return Difference(logical_of(plan.left), logical_of(plan.right))
    if isinstance(plan, Confidence):
        return ConfCompute(
            logical_of(plan.child),
            plan.d_width,
            plan.tid_count,
            plan.value_names,
            plan.world_table,
            plan.method,
            plan.epsilon,
            plan.delta,
            plan.seed,
        )
    raise TypeError(f"no logical plan for {type(plan).__name__}")


def unindexed(plan):
    """``plan`` over copies of its relations (the same segments and
    deletions) that list no index definitions."""
    if isinstance(plan, Scan):
        relation = plan.relation
        copy = Relation.from_segments(
            relation.schema, relation.segments(), relation.deleted_ordinals()
        )
        return Scan(copy, plan.name, plan.alias)
    return plan.with_children([unindexed(child) for child in plan.children])
