"""World-creation primitives (the conclusion's "new language constructs").

The paper closes with: "Following our recent investigation on
uncertainty-aware language constructs beyond relational algebra [5], we
identified common physical operators needed to implement many primitives
for the creation and grouping of worlds."  The two primitives MayBMS
eventually shipped are implemented here on top of U-relations:

* :func:`repair_key` — the *repair-key* construct: given a certain relation
  and a (possibly non-)key, create one world per way of choosing exactly
  one tuple from every key group — the canonical way to turn a dirty
  relation into an uncertain one (every world is a key repair).  An
  optional weight attribute induces tuple probabilities (normalized per
  group), giving a probabilistic U-relational database directly.
* :func:`pick_tuples` — independently keep or drop each tuple (optionally
  with a per-tuple probability), the "maybe" construct.

Both return tuple-level U-relations plus the world-table variables they
introduce; they compose with everything else because the output is just
another U-relation.

A library extra: two Python functions, re-exported from ``repro.core``,
with no SQL surface, no serving path and no benchmark; nothing in the
package calls them (``tests/core/test_worldops.py`` does).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..relational.relation import Relation
from .descriptor import Descriptor
from .udatabase import UDatabase
from .urelation import URelation, tid_column
from .worldtable import WorldTable

__all__ = ["repair_key", "pick_tuples"]


def repair_key(
    udb: UDatabase,
    name: str,
    relation: Relation,
    key: Sequence[str],
    weight: Optional[str] = None,
) -> UDatabase:
    """Register ``relation`` in ``udb`` as the uncertain result of key repair.

    Every world chooses exactly one tuple from each group of tuples that
    agree on the ``key`` attributes.  Groups of size one stay certain.
    With ``weight`` naming a numeric attribute, the choice probabilities
    are the normalized weights (MayBMS's ``REPAIR KEY ... WEIGHT BY``);
    non-positive total weight in a group is an error.

    The variables are added to ``udb``'s world table and the relation is
    registered under ``name``; the same ``udb`` is returned for chaining.
    """
    key = list(key)
    key_positions = relation.schema.positions(key)
    weight_position = relation.schema.resolve(weight) if weight is not None else None
    value_names = [a for a in relation.schema.names if a != weight]
    value_positions = relation.schema.positions(value_names)

    groups: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
    for row in relation.rows:
        group_key = tuple(row[i] for i in key_positions)
        groups.setdefault(group_key, []).append(row)

    world = udb.world_table
    triples = []
    tid = 0
    for group_key in sorted(groups, key=repr):
        rows = groups[group_key]
        tid += 1
        if len(rows) == 1:
            triples.append(
                (Descriptor(), tid, tuple(rows[0][i] for i in value_positions))
            )
            continue
        var = _fresh_variable(world, f"repair[{name}:{_key_label(group_key)}]")
        if weight_position is not None:
            weights = [float(row[weight_position]) for row in rows]
            total = sum(weights)
            if total <= 0:
                raise ValueError(
                    f"repair_key: group {group_key!r} has non-positive total weight"
                )
            probabilities = [w / total for w in weights]
        else:
            probabilities = [1.0 / len(rows)] * len(rows)
        world.add_variable(var, list(range(1, len(rows) + 1)), probabilities)
        for index, row in enumerate(rows, start=1):
            triples.append(
                (
                    Descriptor({var: index}),
                    tid,
                    tuple(row[i] for i in value_positions),
                )
            )

    partition = URelation.build(triples, tid_column(name), value_names)
    udb.add_relation(name, value_names, [partition])
    return udb


def pick_tuples(
    udb: UDatabase,
    name: str,
    relation: Relation,
    probability: float = 0.5,
    weight: Optional[str] = None,
) -> UDatabase:
    """Register ``relation`` with every tuple independently present/absent.

    Each tuple gets its own binary variable: value 1 keeps the tuple (with
    probability ``probability``, or the tuple's ``weight`` attribute when
    given — which must lie in (0, 1]), value 2 drops it.  Tuples with
    weight exactly 1 stay certain.
    """
    weight_position = relation.schema.resolve(weight) if weight is not None else None
    value_names = [a for a in relation.schema.names if a != weight]
    value_positions = relation.schema.positions(value_names)

    world = udb.world_table
    triples = []
    for tid, row in enumerate(relation.rows, start=1):
        p = float(row[weight_position]) if weight_position is not None else probability
        if not 0.0 < p <= 1.0:
            raise ValueError(
                f"pick_tuples: probability {p} of tuple {tid} not in (0, 1]"
            )
        values = tuple(row[i] for i in value_positions)
        if p == 1.0:
            triples.append((Descriptor(), tid, values))
            continue
        var = _fresh_variable(world, f"pick[{name}:{tid}]")
        world.add_variable(var, [1, 2], [p, 1.0 - p])
        triples.append((Descriptor({var: 1}), tid, values))

    partition = URelation.build(triples, tid_column(name), value_names)
    udb.add_relation(name, value_names, [partition])
    return udb


def _fresh_variable(world: WorldTable, base: str) -> str:
    candidate = base
    suffix = 1
    while candidate in world:
        suffix += 1
        candidate = f"{base}#{suffix}"
    return candidate


def _key_label(group_key: Tuple[Any, ...]) -> str:
    return ",".join(repr(v) for v in group_key)
