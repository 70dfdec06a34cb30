"""Property: compaction changes the representation, never the answers.

A random sequence of INSERT / UPDATE / DELETE statements leaves the
relation as a stack of immutable segments plus delete vectors; ``VACUUM``
rewrites that stack into one fresh base segment.  The invariant the whole
maintenance path rests on: the compacted database, the uncompacted one,
and a from-scratch rebuild of the surviving logical tuples are
indistinguishable under every execution mode, with and without access
paths — while the *structure* collapses to ``segment_count == 1`` /
``deleted_ratio == 0`` and the world table is untouched (compaction moves
tuples, never uncertainty).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import execute_query
from repro.core.descriptor import Descriptor
from repro.core.query import Poss, Rel, UProject
from repro.core.udatabase import CompactionPolicy, UDatabase
from repro.core.urelation import URelation, tid_column
from repro.sql import execute_sql

MODES = ["rows", "columns"]

ids = st.integers(min_value=0, max_value=6)
types = st.sampled_from(["a", "b", "c"])
rows = st.lists(st.tuples(ids, types), min_size=0, max_size=4)

inserts = st.tuples(st.just("insert"), rows.filter(len))
updates = st.tuples(
    st.just("update"), types, st.sampled_from(["=", ">", "<="]), ids
)
deletes = st.tuples(st.just("delete"), st.sampled_from(["=", ">", "<="]), ids)

scripts = st.tuples(
    rows,  # initial contents
    st.lists(st.one_of(inserts, updates, deletes), min_size=1, max_size=6),
)


def _build(initial, auto_index=False):
    udb = UDatabase(auto_index=auto_index)
    tid = tid_column("r")
    p_id = URelation.build(
        [(Descriptor(), i, (r[0],)) for i, r in enumerate(initial)], tid, ["id"]
    )
    p_type = URelation.build(
        [(Descriptor(), i, (r[1],)) for i, r in enumerate(initial)], tid, ["type"]
    )
    udb.add_relation("r", ["id", "type"], [p_id, p_type])
    return udb


def _matches(row, op, k):
    return {"=": row[0] == k, ">": row[0] > k, "<=": row[0] <= k}[op]


def _apply(udb, model, op):
    if op[0] == "insert":
        values = ", ".join(f"({i}, '{t}')" for i, t in op[1])
        execute_sql(f"insert into r values {values}", udb)
        model.extend(op[1])
    elif op[0] == "update":
        _, value, cmp, k = op
        execute_sql(f"update r set type = '{value}' where id {cmp} {k}", udb)
        for i, row in enumerate(model):
            if _matches(row, cmp, k):
                model[i] = (row[0], value)
    else:
        _, cmp, k = op
        execute_sql(f"delete from r where id {cmp} {k}", udb)
        model[:] = [row for row in model if not _matches(row, cmp, k)]


def _replay(script, auto_index=False):
    initial, ops = script
    udb = _build(initial, auto_index=auto_index)
    model = list(initial)
    for op in ops:
        _apply(udb, model, op)
    return udb, model


def _answers(db, query, mode, use_indexes):
    return set(
        map(tuple, execute_query(query, db, mode=mode, use_indexes=use_indexes).rows)
    )


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_compacted_equals_uncompacted_equals_rebuilt(script):
    """The three-way equivalence across every mode × access-path choice."""
    churned, model = _replay(script)
    compacted, _ = _replay(script)
    compacted.compact()
    rebuilt = _build(model)
    expected = set(model)
    query = Poss(UProject(Rel("r"), ["id", "type"]))
    for mode in MODES:
        for use_indexes in (True, False):
            for label, db in (
                ("churned", churned),
                ("compacted", compacted),
                ("rebuilt", rebuilt),
            ):
                assert _answers(db, query, mode, use_indexes) == expected, (
                    mode,
                    use_indexes,
                    label,
                )


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_compaction_structural_invariants(script):
    """Post-VACUUM: one segment, empty delete vector, untouched world."""
    udb, model = _replay(script)
    world_version = udb.world_table.version
    world_count = udb.world_count()
    result = udb.compact()
    for part in udb.partitions("r"):
        assert len(part.relation.segments()) == 1
        assert part.relation.deleted_ordinals() == frozenset()
        # the fresh base holds exactly the surviving tuples, in order
        assert len(part.relation.rows) == len(model)
    health = udb.segment_health(publish=False)
    for stats in health.values():
        assert stats["segment_count"] == 1
        assert stats["deleted_rows"] == 0
        assert stats["deleted_ratio"] == 0
    assert udb.world_table.version == world_version
    assert udb.world_count() == world_count
    assert result.rows_dropped >= 0
    # compacting an already-compacted database is the identity
    again = udb.compact()
    assert not again.changed


@settings(max_examples=25, deadline=None)
@given(scripts)
def test_compaction_rebuilds_access_paths_and_statistics(script):
    """Auto-indexed databases answer identically through the new base.

    Compaction replaces the partition relation objects, so carried index
    *definitions* must rebuild against the new ordinals and the
    optimizer's per-relation statistics must recompute — both verified
    behaviourally: an indexed execution over the compacted database
    matches the model exactly.
    """
    initial, ops = script
    udb = _build(initial, auto_index=True)
    model = list(initial)
    for op in ops:
        _apply(udb, model, op)
    udb.compact()
    query = Poss(UProject(Rel("r"), ["id", "type"]))
    assert _answers(udb, query, "columns", True) == set(model)
    from repro.relational.index import attached_index_defs

    for part in udb.partitions("r"):
        # the auto-index definitions followed the rewrite
        assert attached_index_defs(part.relation)


@settings(max_examples=25, deadline=None)
@given(scripts)
def test_threshold_compaction_matches_on_demand(script):
    """``maybe_compact`` under an always-due policy == ``compact``."""
    eager, model = _replay(script)
    eager.maybe_compact(CompactionPolicy(segment_limit=1, deleted_ratio=0.0))
    for part in eager.partitions("r"):
        assert len(part.relation.segments()) == 1
    query = Poss(UProject(Rel("r"), ["id", "type"]))
    assert _answers(eager, query, "columns", False) == set(model)
    # and a policy nothing crosses leaves the stack alone
    lazy, _ = _replay(script)
    stacks = [len(p.relation.segments()) for p in lazy.partitions("r")]
    result = lazy.maybe_compact(
        CompactionPolicy(segment_limit=10_000, deleted_ratio=1.1, min_deleted=10_000)
    )
    assert not result.changed
    assert [len(p.relation.segments()) for p in lazy.partitions("r")] == stacks
