"""Reduction of U-relational databases (Proposition 3.3).

A U-relational database is *reduced* when every tuple of every U-relation
can be completed to an actual tuple in at least one world — i.e. for each
partition tuple there exist partner tuples in the other partitions of the
same relation, with the same tuple id and pairwise-consistent descriptors,
covering all attributes.

The paper reduces by a relational program of semijoins, with the α (shared
tuple id) and ψ (descriptor consistency) conditions as semijoin conditions.
We implement exactly that: each partition is filtered by a semijoin against
every other partition of the same relation.  One pass is what Prop. 3.3
prescribes; since removing tuples can invalidate earlier survivors, the
function iterates to a fixpoint by default (``iterate=False`` gives the
single-pass program).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..relational.relation import Relation
from .udatabase import UDatabase
from .urelation import URelation

__all__ = ["reduce_udatabase", "reduce_partitions", "is_reduced"]


def reduce_partitions(partitions: List[URelation], iterate: bool = True) -> List[URelation]:
    """Semijoin-reduce the vertical partitions of one logical relation."""
    current = list(partitions)
    while True:
        filtered = []
        changed = False
        for i, part in enumerate(current):
            keep = part
            for j, other in enumerate(current):
                if i == j:
                    continue
                keep = _semijoin(keep, other)
            if len(keep) != len(part):
                changed = True
            filtered.append(keep)
        current = filtered
        if not changed or not iterate:
            return current


def _semijoin(left: URelation, right: URelation) -> URelation:
    """Keep left tuples with an α∧ψ partner in ``right``."""
    by_tid: Dict[object, List] = {}
    for descriptor, tids, _values in right:
        by_tid.setdefault(tids[0], []).append(descriptor)
    survivors = []
    d_cols = 2 * left.d_width
    triples = list(left)
    for row, (descriptor, tids, _values) in zip(left.relation, triples):
        partners = by_tid.get(tids[0], ())
        if any(descriptor.consistent_with(p) for p in partners):
            survivors.append(row)
    return URelation(
        Relation(left.relation.schema, survivors),
        left.d_width,
        left.tid_names,
        left.value_names,
    )


def reduction_plan(target: URelation, others: List[URelation]):
    """Prop. 3.3 as an actual relational algebra program.

    Returns a logical plan computing the reduced version of ``target``: a
    cascade of semijoins against every other partition, with the α (shared
    tuple id) and ψ (descriptor consistency) conditions — exactly the
    relational program the proposition asserts exists.
    """
    from ..relational.algebra import Rename, Scan, SemiJoin
    from ..relational.expressions import conjunction
    from .translate import alpha_condition, psi_condition

    plan = Scan(target.relation, name="u_target")
    for index, other in enumerate(others):
        mapping = {}
        for i in range(1, other.d_width + 1):
            mapping[f"c{i}"] = f"c{target.d_width + i}"
            mapping[f"w{i}"] = f"w{target.d_width + i}"
        suffix = "__r"
        shared = [t for t in target.tid_names if t in set(other.tid_names)]
        for tid in shared:
            mapping[tid] = tid + suffix
        for value in other.value_names:
            if value in set(target.value_names):
                mapping[value] = value + suffix
        right = Rename(Scan(other.relation, name=f"u_other{index}"), mapping)
        conditions = []
        alpha = alpha_condition(shared, suffix)
        if shared:
            conditions.append(alpha)
        psi = psi_condition(target.d_width, other.d_width, target.d_width)
        if psi is not None:
            conditions.append(psi)
        plan = SemiJoin(plan, right, conjunction(conditions))
    return plan


def reduce_partitions_relational(partitions: List[URelation]) -> List[URelation]:
    """One pass of the Prop. 3.3 program, executed on the engine."""
    from ..relational.planner import run

    out = []
    for i, part in enumerate(partitions):
        others = [p for j, p in enumerate(partitions) if j != i]
        if not others:
            out.append(part)
            continue
        plan = reduction_plan(part, others)
        relation = run(plan, optimize_first=False)
        out.append(
            URelation(relation, part.d_width, part.tid_names, part.value_names)
        )
    return out


def reduce_udatabase(udb: UDatabase, iterate: bool = True) -> UDatabase:
    """A reduced copy of a U-relational database (same world-set)."""
    out = UDatabase(udb.world_table)
    for name in udb.relation_names():
        schema = udb.logical_schema(name)
        reduced = reduce_partitions(udb.partitions(name), iterate=iterate)
        out.add_relation(name, schema.attributes, reduced)
    return out


def is_reduced(udb: UDatabase) -> bool:
    """Whether every partition tuple survives the semijoin program."""
    for name in udb.relation_names():
        parts = udb.partitions(name)
        reduced = reduce_partitions(parts, iterate=True)
        for before, after in zip(parts, reduced):
            if len(before) != len(after):
                return False
    return True
