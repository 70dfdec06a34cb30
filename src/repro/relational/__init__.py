"""``repro.relational`` — the in-memory relational engine substrate.

This package is a stand-in for the off-the-shelf RDBMS (PostgreSQL 8.2) the
paper runs on: typed schemas, relational algebra (logical plans), a rewrite
optimizer with selection pushdown / join ordering / column pruning, physical
operators (hash, merge, and nested-loop joins), and PostgreSQL-style EXPLAIN
output.

Quick tour::

    from repro.relational import (Relation, Scan, Select, col, explain,
                                  lit, optimize, plan_physical, run)

    r = Relation(["a", "b"], [(1, "x"), (2, "y")])
    plan = Select(Scan(r, name="r"), col("a") > lit(1))
    result = run(plan)
    print(explain(plan_physical(optimize(plan), fuse=True)))
"""

from .algebra import (
    Difference,
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
    SemiJoin,
    Union,
)
from .csvio import read_csv, write_csv
from .explain import explain, explain_analyze, explain_logical
from .index import (
    HashIndex,
    Index,
    SortedIndex,
    build_index,
    ensure_index,
    indexes_on,
)
from .expressions import (
    And,
    Between,
    Col,
    Comparison,
    Expression,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    Param,
    col,
    compile_cache_stats,
    conjunction,
    disjunction,
    lit,
    reset_compile_cache,
)
from .optimizer import estimate_rows, optimize, refresh_statistics
from .plancache import plan_cache_stats, reset_plan_cache
from .planner import Planner, plan_physical, run
from .physical import BATCH_SIZE, execute
from .relation import Relation
from .schema import (
    AmbiguousColumnError,
    Attribute,
    Schema,
    SchemaError,
    UnknownColumnError,
)
from .types import DataType, Date

__all__ = [
    # schema / data
    "Attribute",
    "Schema",
    "Relation",
    "DataType",
    "Date",
    "SchemaError",
    "UnknownColumnError",
    "AmbiguousColumnError",
    # expressions
    "Expression",
    "Col",
    "Lit",
    "Param",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Between",
    "InList",
    "IsNull",
    "col",
    "lit",
    "conjunction",
    "disjunction",
    # algebra
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
    # indexes
    "Index",
    "HashIndex",
    "SortedIndex",
    "build_index",
    "ensure_index",
    "indexes_on",
    # execution
    "optimize",
    "estimate_rows",
    "refresh_statistics",
    "plan_cache_stats",
    "reset_plan_cache",
    "compile_cache_stats",
    "reset_compile_cache",
    "Planner",
    "plan_physical",
    "run",
    "execute",
    "BATCH_SIZE",
    "explain",
    "explain_analyze",
    "explain_logical",
    "read_csv",
    "write_csv",
]
