"""U-relations: vertically partitioned uncertain relations.

A U-relation (Definition 2.2) has schema ``U[D; T; B]``:

* ``D`` — a relational ws-descriptor encoding of ``d_width`` (variable,
  value) column pairs named ``c1, w1, ..., ck, wk``,
* ``T`` — one tuple-id column per logical relation the U-relation carries
  ids for (base partitions have one; join results have several),
* ``B`` — value columns named by the logical attributes they hold.

:class:`URelation` wraps a plain :class:`~repro.relational.relation.Relation`
with this column structure; everything query processing does to it is plain
relational algebra on the wrapped relation (the paper's central claim).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..relational.relation import Relation
from ..relational.schema import Schema
from .descriptor import (
    Descriptor,
    decode_descriptor,
    descriptor_columns,
    encode_descriptor,
)

__all__ = ["URelation", "tid_column"]


def tid_column(relation_name: str, alias: Optional[str] = None) -> str:
    """The canonical tuple-id column name for a logical relation (or alias).

    Self-joins require the two copies to have *disjoint* tuple-id columns
    (Section 3), which aliasing achieves: ``tid_orders`` vs ``tid_o2``.
    """
    return f"tid_{alias or relation_name}"


class URelation:
    """A U-relation: a wrapped relation plus its D/T/B column structure."""

    def __init__(
        self,
        relation: Relation,
        d_width: int,
        tid_names: Sequence[str],
        value_names: Sequence[str],
    ):
        self.relation = relation
        self.d_width = int(d_width)
        self.tid_names: Tuple[str, ...] = tuple(tid_names)
        self.value_names: Tuple[str, ...] = tuple(value_names)
        expected = descriptor_columns(self.d_width) + list(self.tid_names) + list(self.value_names)
        if relation.schema.names != expected:
            raise ValueError(
                f"U-relation schema mismatch: expected {expected}, "
                f"got {relation.schema.names}"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        tuples: Iterable[Tuple[Descriptor, Any, Sequence[Any]]],
        tid_name: str,
        value_names: Sequence[str],
        d_width: Optional[int] = None,
    ) -> "URelation":
        """Build a single-tid U-relation from (descriptor, tid, values) triples.

        ``d_width`` defaults to the largest descriptor present (minimum 1).
        """
        materialized = [(d, t, tuple(vs)) for d, t, vs in tuples]
        if d_width is None:
            d_width = max((len(d) for d, _, _ in materialized), default=1)
            d_width = max(d_width, 1)
        schema = Schema(descriptor_columns(d_width) + [tid_name] + list(value_names))
        rows = []
        for descriptor, tid, values in materialized:
            if len(values) != len(value_names):
                raise ValueError(
                    f"expected {len(value_names)} values, got {len(values)}: {values!r}"
                )
            rows.append(encode_descriptor(descriptor, d_width) + (tid,) + values)
        return cls(Relation(schema, rows), d_width, [tid_name], value_names)

    @classmethod
    def from_certain_rows(
        cls,
        rows: Iterable[Sequence[Any]],
        tid_name: str,
        value_names: Sequence[str],
        tid_start: int = 1,
    ) -> "URelation":
        """Wrap a certain (one-world) relation: empty descriptors, fresh tids."""
        empty = Descriptor()
        triples = [
            (empty, tid_start + i, tuple(row)) for i, row in enumerate(rows)
        ]
        return cls.build(triples, tid_name, value_names, d_width=1)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.relation.schema

    @property
    def descriptor_names(self) -> List[str]:
        """Names of the D columns: ``c1, w1, ..., ck, wk``."""
        return descriptor_columns(self.d_width)

    def __len__(self) -> int:
        return len(self.relation)

    def __iter__(self) -> Iterator[Tuple[Descriptor, Tuple[Any, ...], Tuple[Any, ...]]]:
        """Iterate logical triples (descriptor, tids, values)."""
        d_cols = 2 * self.d_width
        n_tids = len(self.tid_names)
        for row in self.relation:
            descriptor = decode_descriptor(row[:d_cols])
            tids = row[d_cols : d_cols + n_tids]
            values = row[d_cols + n_tids :]
            yield descriptor, tids, values

    def descriptors(self) -> List[Descriptor]:
        """All descriptors, in row order."""
        return [d for d, _, _ in self]

    def tuples(self) -> List[Tuple[Descriptor, Tuple[Any, ...], Tuple[Any, ...]]]:
        """Materialized logical triples."""
        return list(self)

    def __eq__(self, other: object) -> bool:
        """Logical equality: same structure, same set of decoded triples.

        Encoded padding may differ between logically equal U-relations, so
        equality compares decoded (descriptor, tids, values) triples.
        """
        if not isinstance(other, URelation):
            return NotImplemented
        if self.tid_names != other.tid_names or self.value_names != other.value_names:
            return False
        return sorted(map(_triple_key, self)) == sorted(map(_triple_key, other))

    def __repr__(self) -> str:
        return (
            f"URelation(d_width={self.d_width}, tids={list(self.tid_names)}, "
            f"values={list(self.value_names)}, {len(self.relation)} rows)"
        )

    def pretty(self, limit: int = 20) -> str:
        """Human-readable table with decoded descriptors."""
        header = ["D"] + list(self.tid_names) + list(self.value_names)
        lines = []
        for descriptor, tids, values in list(self)[:limit]:
            lines.append([repr(descriptor)] + [str(t) for t in tids] + [str(v) for v in values])
        widths = [
            max(len(header[i]), *(len(l[i]) for l in lines)) if lines else len(header[i])
            for i in range(len(header))
        ]
        out = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for line in lines:
            out.append(" | ".join(c.ljust(w) for c, w in zip(line, widths)))
        if len(self.relation) > limit:
            out.append(f"... ({len(self.relation)} rows total)")
        return "\n".join(out)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def repadded(self, d_width: int) -> "URelation":
        """Re-encode with a (usually larger) descriptor width."""
        if d_width == self.d_width:
            return self
        schema = Schema(
            descriptor_columns(d_width) + list(self.tid_names) + list(self.value_names)
        )
        rows = []
        for descriptor, tids, values in self:
            rows.append(encode_descriptor(descriptor, d_width) + tids + values)
        return URelation(Relation(schema, rows), d_width, self.tid_names, self.value_names)

    def compacted(self) -> "URelation":
        """Re-encode with the minimum descriptor width and dedupe rows."""
        width = max((len(d) for d, _, _ in self), default=1)
        width = max(width, 1)
        seen = set()
        triples = []
        for triple in self:
            key = _triple_key(triple)
            if key not in seen:
                seen.add(key)
                triples.append(triple)
        schema = Schema(
            descriptor_columns(width) + list(self.tid_names) + list(self.value_names)
        )
        rows = [
            encode_descriptor(d, width) + tids + values for d, tids, values in triples
        ]
        return URelation(Relation(schema, rows), width, self.tid_names, self.value_names)

    def rename_values(self, mapping: Dict[str, str]) -> "URelation":
        """Rename value columns (for logical-level aliasing)."""
        new_values = [mapping.get(v, v) for v in self.value_names]
        relation = self.relation.rename(
            {old: new for old, new in mapping.items() if old in self.value_names}
        )
        return URelation(relation, self.d_width, self.tid_names, new_values)

    def rename_tid(self, old: str, new: str) -> "URelation":
        """Rename a tuple-id column (aliasing for self-joins)."""
        tids = [new if t == old else t for t in self.tid_names]
        return URelation(
            self.relation.rename({old: new}), self.d_width, tids, self.value_names
        )


def _triple_key(triple: Tuple[Descriptor, Tuple[Any, ...], Tuple[Any, ...]]):
    """A totally ordered, hash-stable key for a logical triple."""
    descriptor, tids, values = triple
    return (
        tuple((var, type(val).__name__, repr(val)) for var, val in descriptor.items()),
        tuple((type(t).__name__, repr(t)) for t in tids),
        tuple((type(v).__name__, repr(v)) for v in values),
    )
