"""Property: compaction changes the representation, never the answers.

A random sequence of INSERT / UPDATE / DELETE statements leaves each
partition as size tiers of immutable segments plus delete vectors, every
write applying the segment policy to what it writes; ``VACUUM`` applies
it to every partition.  The database starts one row per segment - a
layout no write leaves - so a partition no write touched gives the
VACUUM work.  The invariant the whole maintenance path rests on: the
compacted database, the uncompacted one, and a from-scratch rebuild of
the surviving logical tuples are indistinguishable, executed (with
access paths) and by the ``rows()`` reference (without) — while every
partition comes out meeting the policy and the world table is untouched
(compaction moves tuples, never uncertainty).

The scripts are ``test_dml_property``'s: ``CREATE INDEX`` / ``DROP INDEX``
are drawn between the writes, and compaction has to hand every definition
— built or not — to the relation it writes, building nothing.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.relational.index import built_indexes_on
from repro.relational.relation import DEAD_SHARE
from tests.conftest import assert_tiered, scattered, segment_bound
from tests.core.test_dml_property import ANSWERERS, _answers, _apply, _build, scripts


def _replay(script, indexed=False, layout=scattered):
    initial, ops = script
    udb = _build(initial, indexed=indexed, layout=layout)
    model, defs = list(initial), set(udb.index_defs())
    for op in ops:
        _apply(udb, model, op, defs)
    return udb, model


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_compacted_equals_uncompacted_equals_rebuilt(script):
    """The three-way equivalence, executed and by the reference."""
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
    for run in ANSWERERS:
        for label, db in (
            ("churned", churned),
            ("compacted", compacted),
            ("rebuilt", rebuilt),
        ):
            assert _answers(db, run) == expected, (run.__name__, label)


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_compaction_structural_invariants(script):
    """Post-VACUUM: every partition meets the policy, the world untouched."""
    udb, model = _replay(script)
    world_version = udb.world_table.version
    world_count = udb.world_count()
    result = udb.compact()
    for part in udb.partitions("r"):
        assert_tiered(part.relation)
        # the tiers hold exactly the surviving tuples, in order
        assert len(part.relation.rows) == len(model)
    health = udb.segment_health(publish=False)
    for stats in health.values():
        assert stats["segment_count"] <= segment_bound(stats["live_rows"])
        assert stats["deleted_ratio"] < DEAD_SHARE
    assert udb.world_table.version == world_version
    assert udb.world_count() == world_count
    assert result.rows_dropped >= 0
    # compacting a database that meets the policy is the identity
    again = udb.compact()
    assert not again.changed


@settings(max_examples=25, deadline=None)
@given(scripts)
def test_compaction_rebuilds_access_paths_and_statistics(script):
    """Auto-indexed databases answer identically through the new tiers.

    Compaction replaces the partition relation objects, so carried index
    *definitions* must rebuild against the new ordinals and the
    optimizer's per-relation statistics must recompute — both verified
    behaviourally: an indexed execution over the compacted database
    matches the model exactly.
    """
    udb, model = _replay(script, indexed=True)
    defs = udb.index_defs()
    udb.compact()
    assert _answers(udb) == set(model)
    # the definitions (the auto policy's, less the dropped, plus the
    # created) followed the rewrite
    assert udb.index_defs() == defs
