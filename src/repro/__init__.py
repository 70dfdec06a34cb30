"""repro — a reproduction of "Fast and Simple Relational Processing of
Uncertain Data" (Antova, Jansen, Koch, Olteanu; ICDE 2008).

The package implements **U-relations**, the attribute-level representation
system for uncertain databases underlying MayBMS, together with everything
the paper's evaluation depends on:

* :mod:`repro.relational` — an in-memory relational engine (the PostgreSQL
  stand-in): algebra, optimizer, physical operators, EXPLAIN;
* :mod:`repro.core` — U-relations: world tables, ws-descriptors, the
  Figure 4 query translation, reduction, normalization, certain answers,
  probabilistic confidence;
* :mod:`repro.wsd` — world-set decompositions (baseline, Section 5);
* :mod:`repro.uldb` — Trio-style ULDBs with lineage (baseline, Section 5);
* :mod:`repro.tpch` — a TPC-H population generator and the paper's queries;
* :mod:`repro.ugen` — the Section 6 uncertain-data generator;
* :mod:`repro.bench` — benchmark harness utilities.

Sixty-second tour::

    from repro import (WorldTable, Descriptor, URelation, UDatabase,
                       Rel, USelect, UProject, Poss, execute_query)
    from repro.relational import col, lit

    w = WorldTable({"x": [1, 2]})
    udb = UDatabase(w)
    udb.add_relation("r", ["name"], [URelation.build(
        [(Descriptor(x=1), 1, ("alice",)), (Descriptor(x=2), 1, ("bob",))],
        tid_name="tid_r", value_names=["name"])])
    print(execute_query(Poss(Rel("r")), udb).pretty())
"""

from .core import (
    Certain,
    Descriptor,
    Poss,
    Rel,
    UDatabase,
    UJoin,
    UMerge,
    UProject,
    UQuery,
    URelation,
    USelect,
    UUnion,
    WorldTable,
    certain_answers,
    confidence_relation,
    evaluate_in_world,
    execute_query,
    normalize_udatabase,
    reduce_udatabase,
    translate,
    tuple_confidences,
)
from .relational import Relation, col, lit
from .sql import execute_sql, parse as parse_sql

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # representation
    "WorldTable",
    "Descriptor",
    "URelation",
    "UDatabase",
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
    "translate",
    "execute_query",
    "evaluate_in_world",
    # algorithms
    "normalize_udatabase",
    "reduce_udatabase",
    "certain_answers",
    "tuple_confidences",
    "confidence_relation",
    # SQL front-end
    "execute_sql",
    "parse_sql",
    # substrate re-exports
    "Relation",
    "col",
    "lit",
]
