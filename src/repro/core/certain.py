"""Certain answers on tuple-level normalized U-relations (Lemma 4.3).

A tuple ``t`` is *certain* iff it occurs in every possible world.  For a
tuple-level normalized U-relation ``U[Var, Rng, T, A]`` Lemma 4.3 states
that ``t`` is certain iff some variable ``x`` covers it completely:
``(x -> l, s, t) in U`` for *every* domain value ``l`` of ``x`` (with tuple
ids ``s`` free to vary).

The paper encodes this as one relational algebra query:

    cert(U) := pi_A( pi_Var(W) x pi_A(U)
                     - pi_{Var,A}( W x pi_A(U)  -  pi_{Var,Rng,A}(U) ) )

which this module builds verbatim over the engine's plan nodes — the
whole certain-answer pipeline (normalize, then one RA query) stays inside
relational algebra, which is the point of Section 4.

:func:`certain_answers` takes any query-result U-relation: it normalizes
the descriptors first (query answers are tuple-level already) and then runs
the Lemma 4.3 query.
"""

from __future__ import annotations

from typing import List, Optional

from ..relational.algebra import Difference, Distinct, Plan, Product, Project, Scan
from ..relational.planner import run
from ..relational.relation import Relation
from ..relational.schema import Schema
from .descriptor import TOP_VARIABLE
from .normalization import normalize_urelations
from .urelation import URelation
from .worldtable import WorldTable

__all__ = ["certain_answers", "certain_answers_plan"]


def certain_answers_plan(u_relation: Relation, world: Relation, value_names: List[str]) -> Plan:
    """The Lemma 4.3 relational algebra query as a logical plan.

    ``u_relation`` must be a tuple-level normalized U-relation in its
    relational form ``(c1, w1, t..., A...)`` and ``world`` the ``W(Var,
    Rng)`` relation.  Set semantics is made explicit with ``Distinct``
    (the paper's algebra is set-based).
    """
    u = Scan(u_relation, name="u")
    w = Scan(world, name="w")

    # pi_Var(W) x pi_A(U)
    all_pairs = Product(
        Distinct(Project(w, ["var"])),
        Distinct(Project(u, value_names)),
    )
    # W x pi_A(U) - pi_{Var,Rng,A}(U)
    w_times_a = Product(
        Distinct(Project(w, ["var", "rng"])),
        Distinct(Project(u, value_names)),
    )
    present = Distinct(Project(u, ["c1", "w1"] + value_names))
    missing = Difference(w_times_a, present)
    # pi_{Var,A}(missing)
    incomplete = Distinct(Project(missing, ["var"] + value_names))
    # pairs (x, t) where x covers t completely
    covered = Difference(all_pairs, incomplete)
    return Distinct(Project(covered, value_names))


def certain_answers(result: URelation, world_table: WorldTable) -> Relation:
    """Certain tuples of a (tuple-level) query-result U-relation.

    The result is first normalized (Algorithm 1) so that Lemma 4.3 applies;
    the trivial variable's rows are certain by construction and flow through
    the same query because the world table defines ``_t`` with a singleton
    domain.
    """
    normalized_list, new_world = normalize_urelations([result], world_table)
    (normalized,) = normalized_list
    flat = _flatten_tids(normalized)
    plan = certain_answers_plan(flat.relation, new_world.relation(), list(flat.value_names))
    answer = run(plan)
    return Relation(Schema(list(result.value_names)), answer.rows)


def _flatten_tids(urel: URelation) -> URelation:
    """Fuse multiple tuple-id columns into one (Lemma 4.3 uses a single T).

    Query results over joins carry one tuple id per base relation; for the
    certain-answer query only *some* tuple id is needed, so the ids are
    combined into a single composite id column.
    """
    if len(urel.tid_names) == 1:
        return urel
    d_cols = 2 * urel.d_width
    n_tids = len(urel.tid_names)
    schema = Schema(
        urel.relation.schema.names[:d_cols]
        + ["tid"]
        + list(urel.value_names)
    )
    rows = []
    for row in urel.relation:
        tid = tuple(row[d_cols : d_cols + n_tids])
        rows.append(row[:d_cols] + (tid,) + row[d_cols + n_tids :])
    return URelation(Relation(schema, rows), urel.d_width, ["tid"], urel.value_names)
