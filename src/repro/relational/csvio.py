"""CSV import/export for relations.

Relations round-trip through CSV with a typed header: each column is
written as ``name:type`` (``int``, ``float``, ``str``, ``bool``, ``date``,
``any``), so :func:`read_csv` restores the exact Python values
:func:`write_csv` saw.  An ``any`` column mixes types (a partition's tuple
ids: strings loaded, integers minted by ``INSERT``), so each of its cells
is written as ``type:text``.  Plain headers (no ``:type``) are also accepted, in
which case types are inferred per column from the data.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Any, List, Optional, Sequence, Union

from .relation import Relation
from .schema import Attribute, Schema
from .types import DataType, format_value, infer_type, parse_value

__all__ = ["write_csv", "read_csv"]

PathLike = Union[str, pathlib.Path]

_NULL = "\\N"  # PostgreSQL-style NULL marker, distinguishable from ""


def write_csv(relation: Relation, path: PathLike) -> None:
    """Write a relation to ``path`` with a typed header row.

    A value of a type none of the column types names (a tuple, say) cannot
    round-trip through text and is rejected with :class:`ValueError`.
    """
    types = relation.infer_types()
    for position, (attr, dtype) in enumerate(zip(relation.schema.attributes, types)):
        if dtype is DataType.ANY and any(
            infer_type(row[position]) is DataType.ANY and row[position] is not None
            for row in relation
        ):
            raise ValueError(f"column {attr.name!r} holds a value CSV cannot type")
    header = [
        f"{attr.name}:{dtype.value}"
        for attr, dtype in zip(relation.schema.attributes, types)
    ]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in relation:
            writer.writerow(list(map(_cell, row, types)))


def read_csv(path: PathLike, schema: Optional[Schema] = None) -> Relation:
    """Read a relation from CSV (typed header, plain header, or ``schema``,
    which overrides the header's names and every type but ``ANY``)."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV file") from None
        raw_rows = [row for row in reader]

    names, types = _parse_header(header)
    if schema is not None:
        if len(header) != len(schema):
            raise ValueError(
                f"{path}: header has {len(header)} columns, schema {len(schema)}"
            )
        # the schema names the columns and types those it does not leave
        # ANY; the header types the rest (an ``any`` column's cells say
        # their own types)
        names = schema.names
        types = [
            typed if attr.dtype is DataType.ANY else attr.dtype
            for attr, typed in zip(schema.attributes, types)
        ]
    else:
        schema = Schema(
            [Attribute(n, t or DataType.ANY) for n, t in zip(names, types)]
        )
        if all(t is None for t in types):
            types = _infer_column_types(raw_rows, len(names))

    rows = []
    for raw in raw_rows:
        if len(raw) != len(names):
            raise ValueError(
                f"{path}: row arity {len(raw)} does not match header {len(names)}"
            )
        rows.append(tuple(map(_parsed, raw, types)))
    return Relation(schema, rows)


def _cell(value: Any, dtype: DataType) -> str:
    if value is None:
        return _NULL
    if dtype is DataType.ANY:  # a mixed column: each cell says its type
        return f"{infer_type(value).value}:{format_value(value)}"
    return format_value(value)


def _parsed(field: str, dtype: Optional[DataType]) -> Any:
    if field == _NULL:
        return None
    if dtype is DataType.ANY:  # a cell of a mixed column: ``type:text``
        tag, _, field = field.partition(":")
        dtype = DataType(tag)
    return parse_value(field, dtype)


def _parse_header(header: Sequence[str]):
    names: List[str] = []
    types: List[DataType] = []
    for cell in header:
        if ":" in cell:
            name, _, type_text = cell.rpartition(":")
            try:
                types.append(DataType(type_text))
                names.append(name)
                continue
            except ValueError:
                pass  # not a type suffix after all: treat the cell as a name
        names.append(cell)
        types.append(None)  # untyped: text, or inferred when all are
    return names, types


def _infer_column_types(raw_rows: Sequence[Sequence[str]], width: int) -> List[DataType]:
    """Best-effort inference when the header carries no type suffixes."""
    out: List[DataType] = []
    for i in range(width):
        column = [row[i] for row in raw_rows if i < len(row) and row[i] != _NULL]
        out.append(_infer_text_type(column))
    return out


def _infer_text_type(values: Sequence[str]) -> DataType:
    if not values:
        return DataType.STR
    for dtype in (DataType.INT, DataType.FLOAT, DataType.DATE):
        try:
            for value in values:
                parse_value(value, dtype)
            return dtype
        except (ValueError, TypeError):
            continue
    return DataType.STR
