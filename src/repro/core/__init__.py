"""``repro.core`` — U-relations, the paper's primary contribution.

The package implements:

* :class:`WorldTable` / :class:`Descriptor` — variables, domains and
  ws-descriptors (Section 2),
* :class:`URelation` / :class:`UDatabase` — vertically partitioned
  uncertain relations and whole databases, with possible-world semantics,
* the logical query algebra (:class:`Rel`, :class:`USelect`,
  :class:`UProject`, :class:`UJoin`, :class:`UUnion`, :class:`UMerge`,
  :class:`Poss`, :class:`Certain`, :class:`Conf`) and the Figure 4
  translation to plain relational algebra (:func:`translate`,
  :func:`execute_query`, and :func:`reference_query`, the answer it must
  give),
* reduction (Prop. 3.3), normalization (Algorithm 1), certain answers
  (Lemma 4.3), and probabilistic confidence computation (Section 7).

Quickstart::

    from repro.core import *
    from repro.relational import col, lit

    w = WorldTable({"x": [1, 2]})
    u_type = URelation.build(
        [(Descriptor(x=1), "d", ("Tank",)), (Descriptor(x=2), "d", ("Transport",))],
        tid_name="tid_r", value_names=["type"])
    udb = UDatabase(w)
    udb.add_relation("r", ["type"], [u_type])
    answer = execute_query(Poss(USelect(Rel("r"), col("type").eq(lit("Tank")))), udb)
"""

from .aggregates import (
    aggregate_distribution,
    count_bounds,
    expected_count,
    expected_sum,
    sum_bounds,
)
from .certain import certain_answers, certain_answers_plan
from .descriptor import (
    TOP_VARIABLE,
    Descriptor,
    decode_descriptor,
    descriptor_columns,
    encode_descriptor,
)
from .equivalences import (
    apply_merge_rules,
    rule2_commute,
    rule3_reassociate,
    rule4_selection_into_merge,
    rule5_join_into_merge,
    rule6_projection_into_merge,
    translate_early,
    translate_late,
)
from .persist import load_udatabase, save_udatabase
from .normalization import (
    is_normalized,
    normalize_udatabase,
    normalize_urelations,
    variable_components,
)
from .probability import (
    ConfidenceAnswer,
    ConfidenceEngine,
    approx_confidence,
    assignment_space_size,
    confidence_engine,
    confidence_relation,
    exact_confidence,
    monte_carlo_confidence,
    tuple_confidences,
)
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
    evaluate_in_world,
)
from .reduction import (
    is_reduced,
    reduce_partitions,
    reduce_partitions_relational,
    reduce_udatabase,
    reduction_plan,
)
from .prepared import PreparedQuery
from .translate import (
    Translated,
    alpha_condition,
    execute_query,
    explain_query,
    psi_condition,
    query_structure_key,
    reference_query,
    translate,
)
from .udatabase import LogicalSchema, UDatabase
from .urelation import URelation, tid_column
from .worldops import pick_tuples, repair_key
from .worldtable import WorldTable

__all__ = [
    # representation
    "WorldTable",
    "Descriptor",
    "URelation",
    "UDatabase",
    "LogicalSchema",
    "TOP_VARIABLE",
    "tid_column",
    "descriptor_columns",
    "encode_descriptor",
    "decode_descriptor",
    # queries
    "UQuery",
    "Rel",
    "USelect",
    "UProject",
    "UJoin",
    "UUnion",
    "UMerge",
    "Poss",
    "Certain",
    "Conf",
    "evaluate_in_world",
    # translation
    "Translated",
    "translate",
    "translate_late",
    "translate_early",
    "execute_query",
    "explain_query",
    "reference_query",
    "query_structure_key",
    "PreparedQuery",
    "psi_condition",
    "alpha_condition",
    # equivalences
    "apply_merge_rules",
    "rule2_commute",
    "rule3_reassociate",
    "rule4_selection_into_merge",
    "rule5_join_into_merge",
    "rule6_projection_into_merge",
    # normalization & friends
    "normalize_udatabase",
    "normalize_urelations",
    "variable_components",
    "is_normalized",
    "reduce_udatabase",
    "reduce_partitions",
    "reduce_partitions_relational",
    "reduction_plan",
    "is_reduced",
    "certain_answers",
    "certain_answers_plan",
    "save_udatabase",
    "load_udatabase",
    # probability
    "exact_confidence",
    "approx_confidence",
    "monte_carlo_confidence",
    "tuple_confidences",
    "confidence_relation",
    "ConfidenceEngine",
    "ConfidenceAnswer",
    "confidence_engine",
    "assignment_space_size",
    # aggregation (future-work extension)
    "expected_count",
    "expected_sum",
    "count_bounds",
    "sum_bounds",
    "aggregate_distribution",
    # world-creation primitives (conclusion / MayBMS language constructs)
    "repair_key",
    "pick_tuples",
]
