"""Scalar expression AST for selection and join predicates.

Expressions are built with a small combinator API::

    from repro.relational.expressions import col, lit
    pred = (col("o.orderdate") > lit(Date("1995-03-15"))) & col("c.custkey").eq(col("o.custkey"))

An expression is *bound* against a :class:`~repro.relational.schema.Schema`
once, producing a fast closure over row tuples.  Binding resolves column
references to positions, so evaluation does no name lookups.

For the block-at-a-time executor there is a faster path:
:meth:`Expression.compile` (or :func:`compile_expression`) generates Python
source for the whole expression tree and ``eval``-compiles it into a
*single* callable, so evaluating a predicate costs one function call per
row instead of one per AST node.  Short-circuiting of AND/OR is preserved
(the generated code uses Python's own ``and``/``or``), and NULL semantics
are identical to the bound closures.  Unknown :class:`Expression`
subclasses degrade gracefully to their ``bind()`` closure.

The code generator is parameterized over how a column reference is
rendered (``row[i]`` by default), which is what lets the columnar executor
(:mod:`repro.relational.columnar`) reuse the exact same emission rules for
vector kernels that read ``col[i]`` inside a generated loop, and the join
operators for two-row callables reading ``l[i]`` / ``r[j]``.

Compilation results are memoized in a process-wide cache keyed by the
expression's *structural key* plus the schema's column names (plus a
flavor tag for the kernel shape), so repeated plan compilations — e.g.
``execute_query`` called in a loop — stop paying codegen after the first
run.  :func:`compile_cache_stats` exposes hit/miss counters and
:func:`reset_compile_cache` clears them (the benchmarks use both to prove
second-run queries are codegen-free).

NULL handling: any comparison involving ``None`` is ``False`` (the engine
approximates SQL's three-valued logic by "unknown is false", which is the
behaviour observable through WHERE clauses).

The optimizer relies on the analysis helpers at the bottom of this module:
:func:`split_conjuncts`, :func:`columns_of`, :func:`equijoin_pairs`.
"""

from __future__ import annotations

import ast
import math
import operator
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .schema import Schema
from .types import format_value

__all__ = [
    "Expression",
    "Col",
    "Lit",
    "Param",
    "executing",
    "frame",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Arithmetic",
    "IsNull",
    "InList",
    "Between",
    "col",
    "lit",
    "conjunction",
    "disjunction",
    "TRUE",
    "FALSE",
    "is_true",
    "split_conjuncts",
    "columns_of",
    "equijoin_pairs",
    "compile_expression",
    "structural_key",
    "slot_count",
    "exact_leaf",
    "cached_kernel",
    "compile_cache_stats",
    "reset_compile_cache",
]

RowPredicate = Callable[[Tuple[Any, ...]], Any]


class Expression:
    """Base class for scalar expressions over rows."""

    def bind(self, schema: Schema) -> RowPredicate:
        """Compile into a function of a row tuple.  Overridden by subclasses."""
        raise NotImplementedError

    def compile(self, schema: Schema) -> RowPredicate:
        """Code-generate a single callable evaluating this expression.

        Semantically identical to :meth:`bind`, but the whole tree collapses
        into one generated Python function (see :func:`compile_expression`),
        which the block executor applies per batch.
        """
        return compile_expression(self, schema)

    def columns(self) -> FrozenSet[str]:
        """Column references (as written) occurring in this expression."""
        raise NotImplementedError

    # -- combinators ----------------------------------------------------
    def __and__(self, other: "Expression") -> "Expression":
        return And(self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return Or(self, other)

    def __invert__(self) -> "Expression":
        return Not(self)

    def eq(self, other: "Expression") -> "Comparison":
        return Comparison("=", self, other)

    def ne(self, other: "Expression") -> "Comparison":
        return Comparison("<>", self, other)

    def __lt__(self, other: "Expression") -> "Comparison":
        return Comparison("<", self, other)

    def __le__(self, other: "Expression") -> "Comparison":
        return Comparison("<=", self, other)

    def __gt__(self, other: "Expression") -> "Comparison":
        return Comparison(">", self, other)

    def __ge__(self, other: "Expression") -> "Comparison":
        return Comparison(">=", self, other)

    def __add__(self, other: "Expression") -> "Arithmetic":
        return Arithmetic("+", self, other)

    def __sub__(self, other: "Expression") -> "Arithmetic":
        return Arithmetic("-", self, other)

    def __mul__(self, other: "Expression") -> "Arithmetic":
        return Arithmetic("*", self, other)

    def is_null(self) -> "IsNull":
        return IsNull(self)

    def in_list(self, values: Iterable[Any]) -> "InList":
        return InList(self, values)

    def between(self, low: Any, high: Any) -> "Between":
        return Between(self, low, high)


class Col(Expression):
    """A column reference by (possibly qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def bind(self, schema: Schema) -> RowPredicate:
        i = schema.resolve(self.name)
        return lambda row: row[i]

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.name])

    def __repr__(self) -> str:
        return self.name


class Lit(Expression):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def bind(self, schema: Schema) -> RowPredicate:
        value = self.value
        return lambda row: value

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return format_value(self.value)


class _Frame(threading.local):
    """What the calling thread's current execution owns, so that query
    trees, plans and kernels hold none of it: the ``$n`` values (``params``,
    ``$1`` first), the ``(rows, batches)`` each physical operator produced
    (``counters``) and each ``Confidence`` operator's computation summary
    (``summaries``).  No other thread can see it (thread-local state does
    not cross a worker pool by itself).  Outside :func:`executing` a thread
    has a standing empty frame, for callers that drive the layers by hand.
    """

    def __init__(self) -> None:
        self.params: Tuple[Any, ...] = ()
        self.counters: Dict[Any, Tuple[int, int]] = {}
        self.summaries: Dict[Any, Dict[str, Any]] = {}


frame = _Frame()


@contextmanager
def executing(params: Sequence[Any] = ()) -> Iterator[None]:
    """Run the block as one execution with ``params`` as its ``$n`` values.

    The calling thread's frame is fresh inside and what it was afterwards:
    with its counters goes the last reference an execution holds to the
    plan and to the relation versions the plan scans.  Nested use
    (``certain`` over its inner query, DML over its matching query) is
    sequential, under the one frame.
    """
    previous = frame.params, frame.counters, frame.summaries
    frame.params, frame.counters, frame.summaries = tuple(params), {}, {}
    try:
        yield
    finally:
        frame.params, frame.counters, frame.summaries = previous


class Param(Expression):
    """A ``$n``-style runtime parameter slot (``$1`` is index 0).

    A slot holds no value: evaluation reads ``params[index]`` of the
    calling thread's frame (:func:`executing`), and neither planning nor
    generated code ever sees a value, so one tree, one plan and one kernel
    serve every binding and every thread, keyed by the index alone
    (:func:`exact_leaf`).  A parameter may be NULL in any execution, so
    :func:`has_null_literal` reports ``True`` for it and codegen keeps the
    NULL guards around every use.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError(f"parameter index must be >= 0, got {index}")
        self.index = index

    @property
    def value(self) -> Any:
        """The value this slot has in the calling thread's execution."""
        return frame.params[self.index]

    def bind(self, schema: Schema) -> RowPredicate:
        index = self.index
        return lambda row: frame.params[index]

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"${self.index + 1}"


_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Expression):
    """A binary comparison; NULL on either side yields ``False``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARATORS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> RowPredicate:
        fn = _COMPARATORS[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def evaluate(row: Tuple[Any, ...]) -> bool:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return False
            return fn(lv, rv)

        return evaluate

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def flipped(self) -> "Comparison":
        """The same comparison with operands swapped (``a < b`` -> ``b > a``)."""
        flip = {"=": "=", "<>": "<>", "!=": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return Comparison(flip[self.op], self.right, self.left)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expression):
    """Logical conjunction (n-ary, flattened)."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Expression):
        flat: List[Expression] = []
        for op in operands:
            if isinstance(op, And):
                flat.extend(op.operands)
            else:
                flat.append(op)
        self.operands = tuple(flat)

    def bind(self, schema: Schema) -> RowPredicate:
        bound = [op.bind(schema) for op in self.operands]

        def evaluate(row: Tuple[Any, ...]) -> bool:
            return all(b(row) for b in bound)

        return evaluate

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for op in self.operands:
            out |= op.columns()
        return out

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(op) for op in self.operands) + ")"


class Or(Expression):
    """Logical disjunction (n-ary, flattened)."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Expression):
        flat: List[Expression] = []
        for op in operands:
            if isinstance(op, Or):
                flat.extend(op.operands)
            else:
                flat.append(op)
        self.operands = tuple(flat)

    def bind(self, schema: Schema) -> RowPredicate:
        bound = [op.bind(schema) for op in self.operands]

        def evaluate(row: Tuple[Any, ...]) -> bool:
            return any(b(row) for b in bound)

        return evaluate

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for op in self.operands:
            out |= op.columns()
        return out

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(op) for op in self.operands) + ")"


class Not(Expression):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand

    def bind(self, schema: Schema) -> RowPredicate:
        bound = self.operand.bind(schema)
        return lambda row: not bound(row)

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


class Arithmetic(Expression):
    """A binary arithmetic expression; NULL-propagating."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITHMETIC:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> RowPredicate:
        fn = _ARITHMETIC[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def evaluate(row: Tuple[Any, ...]) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            return fn(lv, rv)

        return evaluate

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class IsNull(Expression):
    """SQL ``IS NULL`` test."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand

    def bind(self, schema: Schema) -> RowPredicate:
        bound = self.operand.bind(schema)
        return lambda row: bound(row) is None

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"({self.operand!r} IS NULL)"


class InList(Expression):
    """SQL ``IN (v1, v2, ...)`` against a literal list."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: Expression, values: Iterable[Any]):
        self.operand = operand
        self.values = frozenset(values)

    def bind(self, schema: Schema) -> RowPredicate:
        bound = self.operand.bind(schema)
        values = self.values
        return lambda row: bound(row) in values

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        vals = ", ".join(sorted(format_value(v) for v in self.values))
        return f"({self.operand!r} IN ({vals}))"


class Between(Expression):
    """SQL ``BETWEEN low AND high`` (inclusive), NULL-rejecting."""

    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: Expression, low: Any, high: Any):
        self.operand = operand
        self.low = low if isinstance(low, Expression) else Lit(low)
        self.high = high if isinstance(high, Expression) else Lit(high)

    def bind(self, schema: Schema) -> RowPredicate:
        bound = self.operand.bind(schema)
        low = self.low.bind(schema)
        high = self.high.bind(schema)

        def evaluate(row: Tuple[Any, ...]) -> bool:
            v = bound(row)
            if v is None:
                return False
            return low(row) <= v <= high(row)

        return evaluate

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()

    def __repr__(self) -> str:
        return f"({self.operand!r} BETWEEN {self.low!r} AND {self.high!r})"


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def col(name: str) -> Col:
    """Shorthand for :class:`Col`."""
    return Col(name)


def lit(value: Any) -> Lit:
    """Shorthand for :class:`Lit`."""
    return Lit(value)


TRUE: Expression = Comparison("=", Lit(1), Lit(1))
FALSE: Expression = Comparison("=", Lit(1), Lit(0))


def is_true(expression: Expression) -> bool:
    """Whether an expression is the literal ``TRUE`` (``1 = 1``) or a copy
    of it: an equality of two equal non-NULL literals.  By shape, not by
    identity — :func:`map_columns` clones every node it walks."""
    return (
        isinstance(expression, Comparison)
        and expression.op == "="
        and isinstance(expression.left, Lit)
        and isinstance(expression.right, Lit)
        and expression.left.value is not None
        and expression.left.value == expression.right.value
    )


def conjunction(parts: Sequence[Expression]) -> Expression:
    """AND together a sequence of expressions, leaving out ``None`` and
    ``TRUE`` parts (nothing left -> TRUE)."""
    parts = [p for p in parts if p is not None and not is_true(p)]
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def disjunction(parts: Sequence[Expression]) -> Expression:
    """OR together a sequence of expressions (empty -> FALSE)."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(*parts)


# ----------------------------------------------------------------------
# analysis helpers used by the optimizer
# ----------------------------------------------------------------------
def split_conjuncts(expression: Expression) -> List[Expression]:
    """Flatten nested ANDs into a list of conjuncts."""
    if isinstance(expression, And):
        out: List[Expression] = []
        for op in expression.operands:
            out.extend(split_conjuncts(op))
        return out
    return [expression]


def columns_of(expression: Expression) -> FrozenSet[str]:
    """All column references in an expression."""
    return expression.columns()


def equijoin_pairs(
    expression: Expression, left: Schema, right: Schema
) -> Tuple[List[Tuple[str, str]], List[Expression]]:
    """Split a join predicate into hashable equi-pairs and a residual.

    Returns ``(pairs, residual)`` where each pair ``(l, r)`` is an equality
    between a column of ``left`` and a column of ``right``, and ``residual``
    holds every other conjunct.  Used by the planner to pick hash joins.
    """
    pairs: List[Tuple[str, str]] = []
    residual: List[Expression] = []
    for conjunct in split_conjuncts(expression):
        pair = _as_equi_pair(conjunct, left, right)
        if pair is not None:
            pairs.append(pair)
        else:
            residual.append(conjunct)
    return pairs, residual


# ----------------------------------------------------------------------
# expression compilation (code generation for the block executor)
# ----------------------------------------------------------------------
_INLINE_LITERALS = (int, float, str, bool, type(None))

_PY_COMPARATORS = {
    "=": "==",
    "<>": "!=",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


#: Generated source reading the calling thread's ``$n`` vector.
FRAME_PARAMS = "_frame.params"


class _CodeGen:
    """Emits a single Python expression string for an expression tree.

    Column references become ``row[i]`` subscripts (indexes resolved once,
    at compile time), literals are inlined or captured as constants, and
    non-trivial subexpressions that must be consulted twice (NULL checks)
    are bound to walrus temporaries so they are still evaluated only once.
    AND/OR compile to Python's own short-circuiting ``and``/``or``.

    ``ref`` overrides how a resolved column position is rendered — the
    columnar executor passes e.g. ``lambda i: f"_c{i}[_i]"`` to emit vector
    kernels, and the join operators two-row renderings.  Whatever ``ref``
    returns is treated as an atom (cheap and side-effect free to evaluate
    twice), which every subscript-chain rendering is.

    A ``$n`` slot becomes ``<params>[n]``: by default ``_p[n]``, a local a
    kernel's prologue assigns :data:`FRAME_PARAMS` once per call when
    ``params_used`` says so; the row lambda has no prologue and reads
    :data:`FRAME_PARAMS` per row (its callers filter index-matched rows only).
    """

    def __init__(
        self,
        schema: Schema,
        ref: Optional[Callable[[int], str]] = None,
        symbols: str = "",
        assume_non_null: bool = False,
        params: str = "_p",
    ):
        self.schema = schema
        self.context: dict = {"__builtins__": {}, "bool": bool, "_frame": frame}
        self._params = params
        self.params_used = False
        self._counter = 0
        self._ref = ref
        self._symbols = symbols
        self._atoms: set = set()
        #: Emit comparisons/arithmetic without NULL guards.  Only sound
        #: when every referenced column is provably NULL-free and the
        #: expression holds no NULL literal (see :func:`has_null_literal`)
        #: — the columnar executor proves both before selecting such a
        #: kernel body.
        self._assume_non_null = assume_non_null

    def _emit_col(self, position: int) -> str:
        if self._ref is None:
            return f"row[{position}]"
        source = self._ref(position)
        self._atoms.add(source)
        return source

    def _gensym(self, prefix: str) -> str:
        self._counter += 1
        return f"_{self._symbols}{prefix}{self._counter}"

    def _constant(self, value: Any) -> str:
        name = self._gensym("k")
        self.context[name] = value
        return name

    def _once(self, source: str) -> Tuple[str, str]:
        """-> (first-use source, reuse source) evaluating ``source`` once."""
        if source in self._atoms or _is_atom(source):
            return source, source
        temp = self._gensym("t")
        return f"({temp} := {source})", temp

    def _operand(self, expr: Expression) -> Tuple[str, str, bool]:
        """-> (first-use, reuse, nullable) for a NULL-checked operand."""
        source = self.emit(expr)
        if isinstance(expr, Lit) and expr.value is not None:
            return source, source, False  # provably non-null constant
        first, again = self._once(source)
        return first, again, True

    def emit(self, expr: Expression) -> str:
        if isinstance(expr, Col):
            return self._emit_col(self.schema.resolve(expr.name))
        if isinstance(expr, Param):
            # read the executing frame at evaluation time — a value must
            # never be baked into cached code (kernels outlive executions)
            self.params_used = True
            return f"{self._params}[{expr.index}]"
        if isinstance(expr, Lit):
            value = expr.value
            if type(value) in _INLINE_LITERALS:
                # non-finite floats repr as `inf`/`nan`, which are plain
                # identifiers and undefined in the eval context
                if not isinstance(value, float) or math.isfinite(value):
                    return repr(value)
            return self._constant(value)
        if isinstance(expr, Comparison):
            op = _PY_COMPARATORS[expr.op]
            return self._null_checked(expr.left, expr.right, op, on_null="False")
        if isinstance(expr, Arithmetic):
            return self._null_checked(expr.left, expr.right, expr.op, on_null="None")
        if isinstance(expr, (And, Or)):
            if not expr.operands:
                return "True" if isinstance(expr, And) else "False"
            # Python's and/or return an operand: a value must be a bool
            return "bool" + self.condition(expr)
        if isinstance(expr, Not):
            return f"(not {self.condition(expr.operand)})"
        if isinstance(expr, IsNull):
            return f"({self.emit(expr.operand)} is None)"
        if isinstance(expr, InList):
            values = self._constant(expr.values)
            return f"({self.emit(expr.operand)} in {values})"
        if isinstance(expr, Between):
            if self._assume_non_null:
                low = self.emit(expr.low)
                high = self.emit(expr.high)
                # a chained comparison evaluates the middle operand once
                return f"({low} <= {self.emit(expr.operand)} <= {high})"
            operand, operand_again, nullable = self._operand(expr.operand)
            low = self.emit(expr.low)
            high = self.emit(expr.high)
            body = f"({low} <= {operand_again} <= {high})"
            if not nullable:
                return body
            return f"(False if {operand} is None else {body})"
        # unknown Expression subclass: fall back to its bound closure
        fallback = self._constant(expr.bind(self.schema))
        if self._ref is None:
            return f"{fallback}(row)"
        # a kernel has no row tuple in scope: build one from its own refs
        row = "".join(f"{self._emit_col(p)}, " for p in range(len(self.schema)))
        return f"{fallback}(({row}))"

    def condition(self, expr: Expression) -> str:
        """:meth:`emit` for a place that only tests the truth of the result
        (a kernel's ``if``, an operand of ``and`` / ``or`` / ``not``): the
        ``bool(...)`` a value needs around AND / OR is left out there."""
        if isinstance(expr, (And, Or)) and expr.operands:
            joiner = " and " if isinstance(expr, And) else " or "
            return "(" + joiner.join(map(self.condition, expr.operands)) + ")"
        return self.emit(expr)

    def _null_checked(
        self, left: Expression, right: Expression, op: str, on_null: str
    ) -> str:
        """A binary operation guarded by NULL checks on nullable operands."""
        if self._assume_non_null:
            return f"({self.emit(left)} {op} {self.emit(right)})"
        left_first, left_again, left_nullable = self._operand(left)
        right_first, right_again, right_nullable = self._operand(right)
        checks = []
        if left_nullable:
            checks.append(f"{left_first} is None")
        if right_nullable:
            checks.append(f"{right_first} is None")
        body = f"({left_again} {op} {right_again})"
        if not checks:
            return body
        return f"({on_null} if {' or '.join(checks)} else {body})"


def _is_atom(source: str) -> bool:
    """Whether a generated fragment is safe/cheap to evaluate twice."""
    if source.startswith("row[") and source.endswith("]") and source.count("[") == 1:
        return True
    if source.isidentifier():  # gensym temps and captured constants
        return True
    try:  # inlined literal tokens (5, 3.14, 'abc', ...)
        ast.literal_eval(source)
        return True
    except (ValueError, SyntaxError):
        return False


# ----------------------------------------------------------------------
# structural keys and the compile cache
# ----------------------------------------------------------------------
def exact_leaf(node: Any, parent: Optional[Expression]) -> Any:
    """The default leaf policy of :func:`structural_key`: keys by value.

    A ``$n`` slot keys by its index: it has no value outside an execution,
    so every binding, statement and session of one shape shares one
    compiled kernel and one cached plan.
    """
    if isinstance(node, Param):
        return ("param", node.index)
    if isinstance(node, Lit):
        hash(node.value)  # may raise TypeError: unhashable literal
        return ("lit", type(node.value).__name__, node.value)
    hash(node)  # the value set of an IN list
    return node


def structural_key(
    expression: Expression,
    leaf: Callable[[Any, Optional[Expression]], Any] = exact_leaf,
) -> Tuple:
    """A hashable key identifying an expression tree up to structure.

    Two expressions with equal keys compile to identical code against the
    same schema, which is what makes the compile cache sound.  Raises
    ``TypeError`` for unknown :class:`Expression` subclasses or unhashable
    literal values — callers treat that as "not cacheable" and fall back
    to direct compilation.

    ``leaf(node, parent)`` keys the value-carrying leaves — a
    :class:`Lit`, a :class:`Param`, or the value set of an ``IN`` list
    (``parent`` is the expression holding it, ``None`` at the root).
    The default keys them exactly; the workload fingerprint and the
    ad-hoc statement shape (:mod:`repro.core.translate`,
    :mod:`repro.core.prepared`) erase some of them instead.
    """
    return _structural_key(expression, None, leaf)


def _structural_key(e: Expression, parent: Optional[Expression], leaf) -> Tuple:
    # a module-level recursion, not a closure inside structural_key: a
    # self-referencing closure is cyclic garbage on every call, and this
    # runs twice per served request
    if isinstance(e, Col):
        return ("col", e.name)
    if isinstance(e, (Lit, Param)):
        return leaf(e, parent)
    if isinstance(e, (Comparison, Arithmetic)):
        tag = "cmp" if isinstance(e, Comparison) else "arith"
        return (tag, e.op, _structural_key(e.left, e, leaf), _structural_key(e.right, e, leaf))
    if isinstance(e, (And, Or)):
        tag = "and" if isinstance(e, And) else "or"
        return (tag,) + tuple(_structural_key(op, e, leaf) for op in e.operands)
    if isinstance(e, Not):
        return ("not", _structural_key(e.operand, e, leaf))
    if isinstance(e, IsNull):
        return ("isnull", _structural_key(e.operand, e, leaf))
    if isinstance(e, InList):
        return ("in", _structural_key(e.operand, e, leaf), leaf(e.values, e))
    if isinstance(e, Between):
        return (
            "between",
            _structural_key(e.operand, e, leaf),
            _structural_key(e.low, e, leaf),
            _structural_key(e.high, e, leaf),
        )
    raise TypeError(f"no structural key for {type(e).__name__}")


#: Compiled-kernel cache: (flavor, schema names, structural key, extras) ->
#: generated callable.  Held in the same
#: :class:`~repro.relational.plancache.LruHotCache` the plan cache keeps
#: its entries in — one eviction policy for both: reaching capacity
#: evicts the least-recently-used cold kernel instead of clearing
#: wholesale, and frequently hit kernels pin into a hot set — a burst of
#: ad-hoc shapes no longer recompiles a serving workload's entire hot
#: path.  Built lazily (plancache imports this module at load time), with
#: the limit read then: ``reset_compile_cache`` rebuilds it.
_KERNEL_CACHE: Optional[Any] = None
_KERNEL_CACHE_LIMIT = 4096
_cache_hits = 0
_cache_misses = 0


def _kernel_cache():
    global _KERNEL_CACHE
    if _KERNEL_CACHE is None:
        from .plancache import LruHotCache

        _KERNEL_CACHE = LruHotCache(_KERNEL_CACHE_LIMIT)
    return _KERNEL_CACHE


def cached_kernel(key: Optional[Tuple], builder: Callable[[], Any]) -> Any:
    """Memoize ``builder()`` under ``key`` (``None`` key skips the cache).

    Thread-safe for the serving layer: lookups and inserts go through the
    cache's own lock, while ``builder()`` runs outside it — two threads
    missing on the same key may both compile, which is merely duplicated
    work; the kernels are interchangeable and last-write wins.
    """
    global _cache_hits, _cache_misses
    if key is None:
        _cache_misses += 1
        return builder()
    cache = _kernel_cache()
    try:
        cached = cache.get(key)
    except TypeError:  # unhashable component sneaked in
        _cache_misses += 1
        return builder()
    if cached is not None:
        _cache_hits += 1
        return cached
    _cache_misses += 1
    built = builder()
    cache.put(key, built)
    return built


def expression_cache_key(
    flavor: str, expression: Expression, schema: Schema, *extras: Any
) -> Optional[Tuple]:
    """The cache key for compiling ``expression`` against ``schema``.

    ``None`` when the expression is not structurally hashable (unknown
    subclass, unhashable literal) — the caller then compiles uncached.
    """
    try:
        return (flavor, tuple(schema.names), structural_key(expression)) + extras
    except TypeError:
        return None


def _attributes(expression: Expression) -> Iterator[str]:
    """The names a node keeps its state under: the ``__slots__`` of its
    classes, then the ``__dict__`` of a subclass declared without them."""
    for klass in type(expression).__mro__:
        yield from getattr(klass, "__slots__", ())
    yield from getattr(expression, "__dict__", ())


def iter_subexpressions(expression: Expression):
    """Yield the direct :class:`Expression` children of a node.

    Walks the node's attributes, looking into tuple-valued ones — the one
    traversal every generic analysis (:func:`has_null_literal`,
    prepared-statement parameter collection) and rewrite
    (:func:`map_columns`) shares, so a future expression type with a new
    child container shape needs exactly one fix.
    """
    for name in _attributes(expression):
        value = getattr(expression, name, None)
        if isinstance(value, Expression):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Expression):
                    yield item


def map_columns(
    expression: Expression, fn: Callable[["Col"], Expression]
) -> Expression:
    """A copy of the tree with every :class:`Col` replaced by ``fn(col)``.

    The one column-rewriting walk (re-anchoring a fused predicate,
    pushing a selection through a rename or a union, qualifying a
    translated predicate): every other node is cloned attribute by
    attribute, so the input tree — which cached statements share — is
    never touched.  A module-level recursion like :func:`_structural_key`,
    for the same reason: a closure that calls itself is cyclic garbage on
    every call.
    """
    if isinstance(expression, Col):
        return fn(expression)
    clone = expression.__class__.__new__(expression.__class__)
    for name in _attributes(expression):
        value = getattr(expression, name)
        if isinstance(value, Expression):
            value = map_columns(value, fn)
        elif isinstance(value, tuple):
            value = tuple(
                map_columns(v, fn) if isinstance(v, Expression) else v for v in value
            )
        object.__setattr__(clone, name, value)
    return clone


def slot_count(expression: Expression) -> int:
    """How many ``$n`` values evaluating an expression takes (``$3`` alone: 3)."""
    if isinstance(expression, Param):
        return expression.index + 1
    return max(map(slot_count, iter_subexpressions(expression)), default=0)


def has_null_literal(expression: Expression) -> bool:
    """Whether a NULL literal occurs anywhere in an expression tree.

    NULL-literal comparisons must keep their guards (they are ``False``
    regardless of the other operand), so the columnar executor's
    no-NULL-guard kernel bodies are gated on this.
    """
    if isinstance(expression, Lit):
        return expression.value is None
    if isinstance(expression, Param):
        return True  # a parameter may be bound to NULL at any execution
    return any(has_null_literal(child) for child in iter_subexpressions(expression))


def compile_cache_stats() -> dict:
    """Hit/miss/size counters of the expression/kernel compile cache."""
    cache = _KERNEL_CACHE
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": 0 if cache is None else len(cache),
        "pinned": 0 if cache is None else cache.pinned,
        "evictions": 0 if cache is None else cache.evictions,
    }


def reset_compile_cache() -> None:
    """Empty the compile cache and zero its counters (test/bench hook)."""
    global _cache_hits, _cache_misses, _KERNEL_CACHE
    _KERNEL_CACHE = None  # rebuilt lazily, with fresh pin/eviction counters
    _cache_hits = 0
    _cache_misses = 0


def compile_expression(expression: Expression, schema: Schema) -> RowPredicate:
    """Generate and compile a single-callable evaluator for an expression.

    The returned function is semantically equivalent to
    ``expression.bind(schema)`` but runs as one code object, which makes it
    markedly faster inside the block executor's per-batch comprehensions.
    Results are memoized in the compile cache.
    """
    return cached_kernel(
        expression_cache_key("row", expression, schema),
        lambda: _compile_expression_uncached(expression, schema),
    )


def _compile_expression_uncached(expression: Expression, schema: Schema) -> RowPredicate:
    generator = _CodeGen(schema, params=FRAME_PARAMS)
    body = generator.emit(expression)
    source = f"lambda row: {body}"
    try:
        return eval(compile(source, "<compiled-expression>", "eval"), generator.context)
    except SyntaxError:  # pragma: no cover - safety net for odd reprs
        return expression.bind(schema)


def _as_equi_pair(
    conjunct: Expression, left: Schema, right: Schema
) -> Optional[Tuple[str, str]]:
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    if not isinstance(conjunct.left, Col) or not isinstance(conjunct.right, Col):
        return None
    a, b = conjunct.left.name, conjunct.right.name
    left_has_a = left.has(a)
    right_has_a = right.has(a)
    left_has_b = left.has(b)
    right_has_b = right.has(b)
    if left_has_a and right_has_b and not right_has_a and not left_has_b:
        return (a, b)
    if left_has_b and right_has_a and not right_has_b and not left_has_a:
        return (b, a)
    return None
