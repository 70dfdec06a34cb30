"""Columnar batches and generated vector kernels for the column executor.

The executor (:func:`~repro.relational.physical.execute`, the one way a
physical plan runs) exchanges :class:`ColumnBatch` values — one Python
``list``/``tuple`` vector per column — instead of lists of row tuples.  The payoff in pure Python:

* projections become column re-selection (picking list references), no
  per-row ``itemgetter`` calls and no per-row tuple allocation,
* filters run as *one* generated loop per batch (the predicate body is
  inlined into a single list comprehension over the batch), instead of one
  compiled-lambda call per row,
* joins emit output columns by gathering from their inputs' vectors, so
  rows that a downstream projection would drop are never materialized.

Kernels are code-generated by reusing the expression compiler of
:mod:`repro.relational.expressions` with a columnar column-reference
renderer (``col[i]`` instead of ``row[i]``), so NULL semantics and
short-circuiting are identical to the row paths by construction.  All
kernels are memoized in the expression compile cache (structural key +
schema names + kernel shape), which removes codegen from repeated query
executions entirely.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .expressions import (
    FRAME_PARAMS,
    Expression,
    _CodeGen,
    cached_kernel,
    expression_cache_key,
    has_null_literal,
    structural_key,
)
from .schema import Schema

__all__ = [
    "ColumnBatch",
    "gather",
    "row_projector",
    "selection_kernel",
    "map_kernel",
    "probe_kernel",
]

Row = Tuple[Any, ...]


def row_projector(positions: Sequence[int]) -> Callable[[Row], Row]:
    """A row -> tuple projection onto ``positions`` (always returns tuples)."""
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


class ColumnBatch:
    """A batch of rows stored column-wise: one vector per schema column.

    ``columns`` holds one sequence (list or tuple) per column, all of
    ``length`` elements.  Zero-width schemas are represented by an empty
    ``columns`` list with an explicit ``length``.

    A batch built :meth:`from_rows` keeps the row list and transposes only
    when ``columns`` is first read, so between two operators that both
    work on row tuples (an index scan under a nested loop, a nested loop
    under a set difference) the exchange costs no transpose at all.
    """

    __slots__ = ("_columns", "_rows", "length")

    def __init__(self, columns: Sequence[Sequence[Any]], length: int):
        self._columns: Optional[List[Sequence[Any]]] = list(columns)
        self._rows: Optional[Sequence[Row]] = None
        self.length = length

    def __len__(self) -> int:
        return self.length

    @property
    def columns(self) -> List[Sequence[Any]]:
        columns = self._columns
        if columns is None:
            columns = self._columns = list(zip(*self._rows))  # C-speed transpose
        return columns

    @classmethod
    def from_rows(cls, rows: Sequence[Row], width: int) -> "ColumnBatch":
        """A batch over row tuples; the caller must not mutate ``rows``."""
        if not rows:
            return cls([[] for _ in range(width)], 0)
        batch = cls.__new__(cls)
        batch._columns = None
        batch._rows = rows
        batch.length = len(rows)
        return batch

    def to_rows(self) -> Sequence[Row]:
        """The batch as row tuples (one C-speed ``zip`` unless built from rows)."""
        if self._rows is not None:
            return self._rows
        if not self._columns:
            return [()] * self.length
        return list(zip(*self._columns))

    def select(self, positions: Sequence[int]) -> "ColumnBatch":
        """The batch projected onto ``positions`` (repeats allowed).

        Column re-selection — no per-row work — unless the batch still
        only has its rows: then the rows are projected and stay rows, so a
        projection between two row-shaped operators adds no transposes.
        """
        if self._columns is not None:
            return ColumnBatch([self._columns[p] for p in positions], self.length)
        return ColumnBatch.from_rows(
            list(map(row_projector(positions), self._rows)), len(positions)
        )

    def __repr__(self) -> str:
        return f"ColumnBatch({len(self.columns)} cols x {self.length} rows)"


def _build_kernel(source: str, context: dict) -> Callable:
    context["range"] = range
    context["len"] = len
    exec(compile(source, "<columnar-kernel>", "exec"), context)
    return context["_kernel"]


def _hoist(used: Sequence[int], vector: str, prefix: str) -> str:
    return "".join(
        f"    {prefix}{p} = {vector}[{p}]\n" for p in sorted(set(used))
    )


def _hoist_params(*generators: _CodeGen) -> str:
    """The prologue line reading the executing frame's ``$n`` vector into
    ``_p``, once per kernel call, when a generated body uses it."""
    if any(generator.params_used for generator in generators):
        return f"    _p = {FRAME_PARAMS}\n"
    return ""


def selection_kernel(
    predicate: Expression, schema: Schema, assume_non_null: bool = False
) -> Callable[[Sequence[Sequence[Any]], int], List[int]]:
    """``f(columns, n) -> kept row indexes`` for a predicate over vectors.

    ``assume_non_null=True`` drops the per-value NULL guards from the
    generated body — only sound when the caller proved every referenced
    column NULL-free and the predicate holds no NULL literal.
    """
    key = expression_cache_key("sel", predicate, schema, assume_non_null)
    return cached_kernel(
        key, lambda: _selection_uncached(predicate, schema, assume_non_null)
    )


def _selection_uncached(predicate: Expression, schema: Schema, assume_non_null: bool):
    used: List[int] = []

    def ref(position: int) -> str:
        used.append(position)
        return f"_c{position}[_i]"

    generator = _CodeGen(schema, ref=ref, assume_non_null=assume_non_null)
    body = generator.condition(predicate)
    source = (
        "def _kernel(_cols, _n):\n"
        + _hoist(used, "_cols", "_c")
        + _hoist_params(generator)
        + f"    return [_i for _i in range(_n) if {body}]\n"
    )
    try:
        return _build_kernel(source, generator.context)
    except SyntaxError:  # pragma: no cover - safety net for odd reprs
        bound = predicate.bind(schema)

        def fallback(cols, n):
            return [i for i in range(n) if bound(tuple(c[i] for c in cols))]

        return fallback


def map_kernel(
    expression: Expression, schema: Schema
) -> Callable[[Sequence[Sequence[Any]], int], List[Any]]:
    """``f(columns, n) -> value vector`` evaluating an expression per row."""
    key = expression_cache_key("map", expression, schema)
    return cached_kernel(key, lambda: _map_uncached(expression, schema))


def _map_uncached(expression: Expression, schema: Schema):
    used: List[int] = []

    def ref(position: int) -> str:
        used.append(position)
        return f"_c{position}[_i]"

    generator = _CodeGen(schema, ref=ref)
    body = generator.emit(expression)
    source = (
        "def _kernel(_cols, _n):\n"
        + _hoist(used, "_cols", "_c")
        + _hoist_params(generator)
        + f"    return [{body} for _i in range(_n)]\n"
    )
    try:
        return _build_kernel(source, generator.context)
    except SyntaxError:  # pragma: no cover
        bound = expression.bind(schema)

        def fallback(cols, n):
            return [bound(tuple(c[i] for c in cols)) for i in range(n)]

        return fallback


def probe_kernel(
    combined: Schema,
    split: int,
    columnar_is_left: bool,
    key_positions: Sequence[int],
    residual: Optional[Expression],
    filters: Sequence[Tuple[Expression, Schema]],
    output_positions: Sequence[int],
    group: Optional[int],
) -> Callable[..., Any]:
    """The generated, fully fused probe loop of both equi-joins.

    ``f(lookup, columnar_side_columns, fast) -> (output column vectors,
    count)``.  One batch call runs the whole probe: the key vector (the
    ``zip`` of its columns for a composite key) is resolved through
    ``map(lookup, keys)`` at C speed against a probe table of one shape,
    key -> row, or [rows] when several share the key
    (:func:`~repro.relational.index.probe_table`: a ``type(value) is
    list`` test tells the two apart, as rows are tuples, so the common
    one-match case runs no bucket iterator).  Per-match row-side filters
    and the join residual are *inlined* into the loop body, which only
    collects the matches; the output columns are gathered after the loop,
    the columnar side's by one ``itemgetter`` per batch (:func:`gather`),
    so an output column is a list or a tuple.  NULL and mis-typed keys
    need no test: no probe table stores one, so they miss.

    ``combined`` is the join's ``left ++ right`` schema (``split`` columns
    from the left), which the residual and ``output_positions`` refer to.
    Filters run against the row-side tuple (each with the schema it was
    written for — positions are rename-stable).

    ``group=k`` generates the grouping emit of a ``Confidence`` over the
    join instead: ``output_positions`` are a U-relation row's ``2k``
    descriptor columns ``(c1, w1, ..., ck, wk)`` followed by its value
    columns, and ``f(lookup, columns, fast, groups, top) -> count`` adds
    each match's encoded descriptor to ``groups[value tuple]``, a set.  A
    match whose every ``c`` column is the trivial variable is in every
    world: its group becomes ``top`` (the one shared certain set), and
    later matches of that group build nothing.
    """
    try:
        key_parts: Optional[Tuple] = (
            "probe",
            tuple(combined.names),
            split,
            columnar_is_left,
            tuple(key_positions),
            structural_key(residual) if residual is not None else None,
            tuple(
                (structural_key(e), tuple(s.names)) for e, s in filters
            ),
            tuple(output_positions),
            group,
        )
    except TypeError:
        key_parts = None
    return cached_kernel(
        key_parts,
        lambda: _probe_uncached(
            combined,
            split,
            columnar_is_left,
            key_positions,
            residual,
            filters,
            output_positions,
            group,
        ),
    )


def gather(columns: Sequence[Sequence[Any]], positions: Sequence[int]) -> List[Tuple[Any, ...]]:
    """The values at ``positions`` (at least one) of each column vector:
    one C-level ``itemgetter`` call per column instead of a comprehension,
    and a 1-tuple per column for a single position."""
    if len(positions) == 1:
        return [(column[positions[0]],) for column in columns]
    return list(map(itemgetter(*positions), columns))


def _probe_uncached(
    combined: Schema,
    split: int,
    columnar_is_left: bool,
    key_positions: Sequence[int],
    residual: Optional[Expression],
    filters: Sequence[Tuple[Expression, Schema]],
    output_positions: Sequence[int],
    group: Optional[int],
):
    context: dict = {"__builtins__": {}, "_gather": gather}
    context["enumerate"] = enumerate
    context["map"] = map
    context["type"] = type
    context["list"] = list
    context["zip"] = zip
    used: List[int] = []
    generators: List[_CodeGen] = []

    def side_local(position: int) -> Tuple[bool, int]:
        """-> (on the columnar side, side-local position)."""
        on_left = position < split
        return on_left == columnar_is_left, position if on_left else position - split

    def emit_conditions(assume_non_null: bool, tag: str) -> List[str]:
        def combined_ref(position: int) -> str:
            # columnar-side refs become per-match hoisted locals
            # (``_h<p>``) — residuals typically consult the same
            # descriptor columns in several clauses, and one local load
            # beats a vector subscript
            from_col, local = side_local(position)
            if from_col:
                used.append(local)
                return f"_h{local}"
            return f"_ir[{local}]"

        conditions: List[str] = []
        for ordinal, (expr, schema) in enumerate(filters):
            generator = _CodeGen(
                schema,
                ref=lambda p: f"_ir[{p}]",
                symbols=f"f{ordinal}{tag}_",
                assume_non_null=assume_non_null,
            )
            conditions.append(generator.condition(expr))
            context.update(generator.context)
            generators.append(generator)
        if residual is not None:
            generator = _CodeGen(
                combined,
                ref=combined_ref,
                symbols=f"r{tag}_",
                assume_non_null=assume_non_null,
            )
            conditions.append(generator.condition(residual))
            context.update(generator.context)
            generators.append(generator)
        return conditions

    checked = emit_conditions(False, "c")
    # the guard-free body is sound only without NULL literals; its use is
    # additionally gated at runtime on the referenced vectors being clean
    no_null_literal = not any(has_null_literal(e) for e, _ in filters) and (
        residual is None or not has_null_literal(residual)
    )
    fast = emit_conditions(True, "n") if (checked and no_null_literal) else None

    emit_specs = [side_local(p) for p in output_positions]
    want_inner = any(not from_col for from_col, _ in emit_specs)
    hoisted = sorted(set(used))
    keys = ", ".join(f"_cols[{p}]" for p in key_positions)
    lines = [
        "def _kernel(_lookup, _cols, _fast):"
        if group is None
        else "def _kernel(_lookup, _cols, _fast, _groups, _top):",
        f"    _kc = {keys}" if len(key_positions) == 1 else f"    _kc = zip({keys})",
    ]
    lines.extend(_hoist_params(*generators).splitlines())
    outer = sorted({local for from_col, local in emit_specs if from_col})
    for p in sorted(set(used) | set(outer)):
        lines.append(f"    _cc{p} = _cols[{p}]")
    if group is None:
        # the probe loop only collects matches (two appends per match);
        # the output columns are gathered below
        lines.append("    _oi = []")
        lines.append("    _ai = _oi.append")
        if want_inner:
            lines.append("    _irs = []")
            lines.append("    _ar = _irs.append")
    else:
        from ..core.descriptor import TOP_VARIABLE

        context["_T"] = TOP_VARIABLE
        lines.append("    _n = 0")
        lines.append("    _get = _groups.get")

    def value(spec: Tuple[bool, int]) -> str:
        from_col, local = spec
        if not from_col:
            return f"_ir[{local}]"
        return f"_h{local}" if local in hoisted else f"_cc{local}[_i]"

    def emit_group(indent: str) -> None:
        # the value tuple first: a certain group builds no encoding at all
        encoding = [value(spec) for spec in emit_specs[: 2 * group]]
        built = "(" + "".join(e + ", " for e in encoding) + ")"
        certain = " and ".join(f"{c} == _T" for c in encoding[::2]) or "True"
        values = "".join(value(spec) + ", " for spec in emit_specs[2 * group :])
        lines.extend(
            indent + line
            for line in (
                "_n += 1",
                f"_v = ({values})",
                "_g = _get(_v)",
                "if _g is _top:",
                "    continue",
                f"if {certain}:",
                "    _groups[_v] = _top",
                "elif _g is None:",
                f"    _groups[_v] = {{{built}}}",
                "else:",
                f"    _g.add({built})",
            )
        )

    def emit_match(conditions: List[str], indent: str) -> None:
        for condition in conditions:
            lines.append(f"{indent}if not {condition}:")
            lines.append(f"{indent}    continue")
        if group is not None:
            emit_group(indent)
            return
        lines.append(f"{indent}_ai(_i)")
        if want_inner:
            lines.append(f"{indent}_ar(_ir)")

    def emit_loop(conditions: List[str], indent: str) -> None:
        lines.append(f"{indent}for _i, _b in enumerate(map(_lookup, _kc)):")
        lines.append(f"{indent}    if _b is None:")
        lines.append(f"{indent}        continue")
        for p in hoisted:
            lines.append(f"{indent}    _h{p} = _cc{p}[_i]")
        lines.append(f"{indent}    if type(_b) is list:")
        lines.append(f"{indent}        for _ir in _b:")
        emit_match(conditions, indent + "            ")
        lines.append(f"{indent}        continue")
        lines.append(f"{indent}    _ir = _b")
        emit_match(conditions, indent + "    ")

    if fast is not None:
        # ``_fast`` is decided statically by the caller: every column the
        # conditions reference was proven NULL-free from the plan tree
        lines.append("    if _fast:")
        emit_loop(fast, "        ")
        lines.append("    else:")
        emit_loop(checked, "        ")
    else:
        emit_loop(checked, "    ")
    if group is not None:
        lines.append("    return _n")
        return _build_kernel("\n".join(lines) + "\n", context)
    lines.append("    if not _oi:")
    lines.append("        return (), 0")
    if outer:
        gathered = "".join(f"_g{p}, " for p in outer)
        vectors = "".join(f"_cc{p}, " for p in outer)
        lines.append(f"    ({gathered}) = _gather(({vectors}), _oi)")
    outs = [
        f"_g{local}" if from_col else f"[_r[{local}] for _r in _irs]"
        for from_col, local in emit_specs
    ]
    lines.append(f"    return ({''.join(o + ', ' for o in outs)}), len(_oi)")
    return _build_kernel("\n".join(lines) + "\n", context)
