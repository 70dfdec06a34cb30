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

The scripts are ``test_dml_property``'s: ``CREATE INDEX`` / ``DROP INDEX``
are drawn between the writes, and compaction has to hand every definition
— built or pending — to the relation it writes, building nothing.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.udatabase import CompactionPolicy
from repro.relational.index import built_indexes_on
from tests.core.test_dml_property import MODES, _answers, _apply, _build, scripts


def _replay(script, auto_index=False):
    initial, ops = script
    udb = _build(initial, auto_index=auto_index)
    model, defs = list(initial), set(udb.index_defs())
    for op in ops:
        _apply(udb, model, op, defs)
    return udb, model


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_compacted_equals_uncompacted_equals_rebuilt(script):
    """The three-way equivalence across every mode × access-path choice."""
    churned, model = _replay(script)
    compacted, _ = _replay(script)
    built = [built_indexes_on(p.relation) for p in compacted.partitions("r")]
    compacted.compact()
    # the definitions follow the rewrite, and the rewrite builds none
    assert compacted.index_defs() == churned.index_defs()
    for part, before in zip(compacted.partitions("r"), built):
        assert [i.name for i in built_indexes_on(part.relation)] == [
            i.name for i in before
        ]
    rebuilt = _build(model)
    expected = set(model)
    for mode in MODES:
        for use_indexes in (True, False):
            for label, db in (
                ("churned", churned),
                ("compacted", compacted),
                ("rebuilt", rebuilt),
            ):
                assert _answers(db, mode, use_indexes) == expected, (
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
    udb, model = _replay(script, auto_index=True)
    defs = udb.index_defs()
    udb.compact()
    assert _answers(udb, "columns", True) == set(model)
    # the definitions (the auto policy's, less the dropped, plus the
    # created) followed the rewrite
    assert udb.index_defs() == defs


@settings(max_examples=25, deadline=None)
@given(scripts)
def test_threshold_compaction_matches_on_demand(script):
    """``maybe_compact`` under an always-due policy == ``compact``."""
    eager, model = _replay(script)
    eager.maybe_compact(CompactionPolicy(segment_limit=1, deleted_ratio=0.0))
    for part in eager.partitions("r"):
        assert len(part.relation.segments()) == 1
    assert _answers(eager, "columns", False) == set(model)
    # and a policy nothing crosses leaves the stack alone
    lazy, _ = _replay(script)
    stacks = [len(p.relation.segments()) for p in lazy.partitions("r")]
    result = lazy.maybe_compact(
        CompactionPolicy(segment_limit=10_000, deleted_ratio=1.1, min_deleted=10_000)
    )
    assert not result.changed
    assert [len(p.relation.segments()) for p in lazy.partitions("r")] == stacks
