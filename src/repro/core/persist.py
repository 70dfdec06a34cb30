"""Saving and loading U-relational databases (log-structured, crash-safe).

A :class:`~repro.core.udatabase.UDatabase` persists to a directory whose
layout mirrors the in-memory write path: every vertical partition is a
list of **immutable segments** plus a **delete vector**, so saving after
DML appends new segment files and rewrites the manifest — it never
rewrites a base segment.

Segment-log layout::

    <dir>/
      manifest.csv                  relation, attributes, partition_values,
                                    part, d_width, segments ("id:rows|..."),
                                    deleted ("ordinal|..." — the delete
                                    vector, inline)
      indexes.csv                   secondary-index definitions
      w.csv                         the world table (Var, Rng[, P])
      u_<relation>_<attributes>/    one directory per partition
        seg_000000.csv              the base segment (typed CSV)
        seg_000001.csv              one file per appended segment

Write-path contract:

* **Segments are immutable**: a ``seg_<id>.csv`` whose row count matches
  the manifest entry is never rewritten — save after N inserts leaves
  every base segment file byte-identical and writes only the new
  appended-segment files.  Segment ids are never reused within a lineage
  (compaction's fresh base takes an id past every existing one), so a
  new save never overwrites a file an older manifest still references.
  A save directory therefore belongs to one database *lineage* (load →
  DML → save back); to save an unrelated database under the same path,
  start from an empty directory.
* **The manifest rename is the commit point.**  A save proceeds in three
  phases: (1) write every new segment file — the current manifest does
  not reference them, so a crash here leaves the directory loading at
  exactly its pre-save state; (2) write ``manifest.csv`` (and ``w.csv``
  / ``indexes.csv``) to a temporary sibling and ``os.replace`` it into
  place — POSIX-atomic, so :func:`load_udatabase` only ever sees the
  complete old manifest or the complete new one, never a torn file;
  (3) **garbage-collect**: delete segment files the *new* manifest no
  longer references (compacted-away stacks) — only after the rename, so
  a crash any time before phase 3 leaves every file the committed
  manifest needs, and a crash during phase 3 merely leaves unreferenced
  files for the next save to sweep.
* **Delete vectors live inside the manifest**: the ``deleted`` column
  holds the global ordinals (over the concatenation of all
  segment rows in segment order) marked dead.  Inline storage is what
  makes the rename atomic for UPDATE/DELETE too — the new segment list
  and the new delete vector commit in the same ``os.replace``, so no
  intermediate "rows appended but predecessors not yet deleted" state is
  ever visible on disk.
* **One format.**  This program is the only producer of such
  directories and writes exactly this layout; a manifest whose header
  lacks one of the columns above is input from outside the program and
  is refused with a ``ValueError``.

``indexes.csv`` records every secondary index *definition* of every
partition — built or still pending — keyed by partition directory, and
nothing else.  On load it is authoritative: the partitions get exactly
the definitions the file lists, all deferred (a dropped auto-index stays
dropped, a created one comes back), so a save/load round trip costs no
index construction at all; only a directory without the file gets the
auto-index policy.  Rows of a file other than a partition directory (the
``w.csv`` rows older saves wrote) are ignored.

The manifest's ``d_width`` is the stored encoding's width: a certain
partition is saved with its ⊤ pairs, exactly as it is held in memory.  The
width a query plans with is derived, never stored: the translation reads
"this descriptor slot is all-⊤" from the loaded relation on first use
(:meth:`~repro.relational.relation.Relation.column_all_equal`), so a save
writes the same files whatever was planned before it.
"""

from __future__ import annotations

import csv
import os
import pathlib
from typing import Dict, List, Set, Tuple, Union

from ..relational.csvio import read_csv, write_csv
from ..relational.index import defer_index
from ..relational.relation import Relation, Segment
from ..relational.schema import Schema
from .udatabase import UDatabase, partition_label
from .urelation import URelation, tid_column
from .worldtable import WorldTable

__all__ = ["save_udatabase", "load_udatabase"]

PathLike = Union[str, pathlib.Path]

_MANIFEST_HEADER = [
    "relation",
    "attributes",
    "partition_values",
    "part",
    "d_width",
    "segments",
    "deleted",
]

#: Seam for the atomic-rename commit (fault-injection tests monkeypatch
#: this to crash a save between phases).
_rename = os.replace


def _segment_filename(segment_id: int) -> str:
    return f"seg_{segment_id:06d}.csv"


def _csv_data_rows(path: pathlib.Path) -> int:
    """Fast line-based data-row count of a CSV file (header excluded).

    Used only to decide whether an on-disk segment file can be *skipped*
    (it already holds this immutable segment); a miscount — e.g. quoted
    embedded newlines — merely causes a redundant rewrite, never a skip
    of changed data within one database lineage.
    """
    count = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            count += chunk.count(b"\n")
    return max(0, count - 1)


def _commit_rows(path: pathlib.Path, header: List[str], rows: List[Tuple]) -> None:
    """Write a CSV to a temporary sibling and atomically rename into place."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    _rename(tmp, path)


def save_udatabase(udb: UDatabase, directory: PathLike) -> None:
    """Write a U-relational database as a segment log (see module doc).

    Idempotent, incremental, and crash-safe: new segment files land
    first, the manifest rename commits them (with the delete vectors
    inline), and only then are segment files the new manifest dropped —
    compacted-away stacks — garbage-collected.  Re-saving skips every
    segment file already present with the expected row count, so base
    segments stay byte-identical across saves.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest_rows: List[Tuple[str, str, str, str, int, str, str]] = []
    referenced: Dict[pathlib.Path, Set[str]] = {}
    for name in udb.relation_names():
        schema = udb.logical_schema(name)
        for part in udb.partitions(name):
            part_key = partition_label(name, part)
            part_dir = directory / part_key
            part_dir.mkdir(exist_ok=True)
            keep = referenced.setdefault(part_dir, set())
            relation = part.relation
            entries: List[str] = []
            for segment in relation.segments():
                entries.append(f"{segment.segment_id}:{len(segment.rows)}")
                filename = _segment_filename(segment.segment_id)
                keep.add(filename)
                target = part_dir / filename
                if target.exists() and _csv_data_rows(target) == len(segment.rows):
                    continue  # immutable segment already persisted
                write_csv(
                    Relation.from_trusted(relation.schema, list(segment.rows)),
                    target,
                )
            manifest_rows.append(
                (
                    name,
                    "|".join(schema.attributes),
                    "|".join(part.value_names),
                    part_key,
                    part.d_width,
                    "|".join(entries),
                    "|".join(str(o) for o in sorted(relation.deleted_ordinals())),
                )
            )

    # -- commit phase: each file lands whole via temp-write + atomic
    # rename; the manifest rename is THE commit point for segment state
    has_probabilities = _has_nonuniform_probabilities(udb.world_table)
    world = udb.world_table.relation(with_probabilities=has_probabilities)
    world_tmp = directory / "w.csv.tmp"
    write_csv(world, world_tmp)
    _rename(world_tmp, directory / "w.csv")

    _commit_rows(directory / "manifest.csv", _MANIFEST_HEADER, manifest_rows)
    _commit_rows(
        directory / "indexes.csv",
        ["file", "index", "columns", "kind"],
        [(part, name, "|".join(cols), kind) for part, name, cols, kind in udb.index_defs()],
    )

    # -- GC phase: only now drop what the committed manifest no longer
    # references (old segment stacks replaced by a compacted base)
    for part_dir, keep in referenced.items():
        for child in part_dir.glob("seg_*.csv"):
            if child.name not in keep:
                child.unlink()


def _load_partition(directory: pathlib.Path, entry: Dict[str, str]) -> Relation:
    """Assemble one partition relation from its segment directory."""
    part_dir = directory / entry["part"]
    segments: List[Segment] = []
    schema = None
    for item in entry["segments"].split("|"):
        segment_id, _, expected = item.partition(":")
        loaded = read_csv(part_dir / _segment_filename(int(segment_id)))
        if schema is None:
            schema = loaded.schema
        if expected and len(loaded.rows) != int(expected):
            raise ValueError(
                f"{part_dir}: segment {segment_id} holds {len(loaded.rows)} "
                f"rows, manifest expects {expected}"
            )
        segments.append(Segment(int(segment_id), tuple(loaded.rows)))
    if schema is None:
        raise ValueError(f"{part_dir}: manifest lists no segments")
    spec = entry["deleted"]
    deleted = [int(o) for o in spec.split("|")] if spec else []
    return Relation.from_segments(schema, segments, deleted)


def load_udatabase(directory: PathLike) -> UDatabase:
    """Load a U-relational database saved by :func:`save_udatabase`.

    Raises ``ValueError`` for a manifest that is not in the layout
    :func:`save_udatabase` writes (see the module docstring).
    """
    directory = pathlib.Path(directory)
    world_relation = read_csv(directory / "w.csv")
    world = WorldTable.from_relation(world_relation)
    # an indexes.csv lists the definitions; without one, the auto policy
    index_manifest = directory / "indexes.csv"
    udb = UDatabase(world, auto_index=not index_manifest.exists())

    with open(directory / "manifest.csv", "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        entries = [dict(zip(header, row)) for row in reader]
    missing = [column for column in _MANIFEST_HEADER if column not in header]
    if missing:
        raise ValueError(
            f"{directory}: manifest.csv lacks the column(s) {', '.join(missing)}; "
            f"not a directory save_udatabase wrote"
        )

    grouped: Dict[str, Tuple[List[str], List[URelation]]] = {}
    by_key: Dict[str, Relation] = {}
    for entry in entries:
        name = entry["relation"]
        attributes = entry["attributes"].split("|")
        values = entry["partition_values"].split("|")
        relation = by_key[entry["part"]] = _load_partition(directory, entry)
        part = URelation(
            relation, int(entry["d_width"]), [tid_column(name)], values
        )
        grouped.setdefault(name, (attributes, []))[1].append(part)

    for name, (attributes, parts) in grouped.items():
        udb.add_relation(name, attributes, parts)
    udb.auto_index = True  # relations added from here on get the policy

    # definitions attach now, builds happen on first planner access
    if index_manifest.exists():
        with open(index_manifest, "r", newline="", encoding="utf-8") as handle:
            for entry in csv.DictReader(handle):
                relation = by_key.get(entry["file"])
                if relation is not None:  # else a `w.csv` row of an older save
                    defer_index(
                        relation,
                        entry["columns"].split("|"),
                        kind=entry["kind"],
                        name=entry["index"],
                    )
    return udb


def _has_nonuniform_probabilities(world: WorldTable) -> bool:
    for var in world.variables():
        domain = world.domain(var)
        uniform = 1.0 / len(domain)
        for value in domain:
            if abs(world.probability(var, value) - uniform) > 1e-12:
                return True
    return False
