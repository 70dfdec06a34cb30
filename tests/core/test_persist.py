"""Tests for UDatabase save/load."""

import csv
import os
import pathlib

import pytest

from repro.core import Descriptor, UDatabase, URelation, WorldTable
from repro.core.persist import load_udatabase, save_udatabase
from repro.core.udatabase import partition_label
from repro.core.urelation import tid_column

from tests.conftest import assert_tiered, scattered, without_indexes


def worldset(udb, name):
    return frozenset(frozenset(i[name].rows) for _, i in udb.worlds())


def _sql_udb(count=3, layout=lambda part: part):
    """A certain two-partition relation of ``count`` rows whose tids are
    ints, like SQL's, each partition stored as ``layout`` makes it."""
    udb = UDatabase()
    tid = tid_column("r")
    p_id = URelation.build(
        [(Descriptor(), i, (i,)) for i in range(count)], tid, ["id"]
    )
    p_type = URelation.build(
        [(Descriptor(), i, ("Tank",)) for i in range(count)], tid, ["type"]
    )
    udb.add_relation("r", ["id", "type"], [layout(p_id), layout(p_type)])
    return without_indexes(udb)


class TestRoundTrip:
    def test_vehicles_roundtrip(self, vehicles_udb, tmp_path):
        save_udatabase(vehicles_udb, tmp_path / "db")
        back = load_udatabase(tmp_path / "db")
        assert back.relation_names() == vehicles_udb.relation_names()
        assert back.world_count() == vehicles_udb.world_count()
        assert worldset(back, "r") == worldset(vehicles_udb, "r")

    def test_partition_structure_preserved(self, vehicles_udb, tmp_path):
        save_udatabase(vehicles_udb, tmp_path / "db")
        back = load_udatabase(tmp_path / "db")
        originals = vehicles_udb.partitions("r")
        restored = back.partitions("r")
        assert len(restored) == len(originals)
        for a, b in zip(sorted(originals, key=lambda p: p.value_names),
                        sorted(restored, key=lambda p: p.value_names)):
            assert a == b

    def test_files_mirror_paper_naming(self, vehicles_udb, tmp_path):
        save_udatabase(vehicles_udb, tmp_path / "db")
        names = {p.name for p in (tmp_path / "db").iterdir()}
        assert "u_r_id" in names
        assert "u_r_type" in names
        assert "w.csv" in names and "manifest.csv" in names
        # each partition directory holds its base segment file
        assert (tmp_path / "db" / "u_r_id" / "seg_000000.csv").exists()
        assert (tmp_path / "db" / "u_r_type" / "seg_000000.csv").exists()

    def test_probabilities_roundtrip(self, tmp_path):
        world = WorldTable({"x": [1, 2]}, probabilities={"x": [0.75, 0.25]})
        u = URelation.build(
            [(Descriptor(x=1), 1, ("a",)), (Descriptor(x=2), 1, ("b",))],
            tid_column("r"),
            ["v"],
        )
        udb = UDatabase(world)
        udb.add_relation("r", ["v"], [u])
        save_udatabase(udb, tmp_path / "p")
        back = load_udatabase(tmp_path / "p")
        assert back.world_table.probability("x", 1) == pytest.approx(0.75)

    def test_uniform_probabilities_stay_uniform(self, vehicles_udb, tmp_path):
        save_udatabase(vehicles_udb, tmp_path / "u")
        back = load_udatabase(tmp_path / "u")
        assert back.world_table.probability("x", 1) == pytest.approx(0.5)

    def test_queries_work_after_reload(self, vehicles_udb, tmp_path):
        from repro.core import Poss, Rel, UProject, USelect, execute_query
        from repro.relational import col, lit

        save_udatabase(vehicles_udb, tmp_path / "q")
        back = load_udatabase(tmp_path / "q")
        q = Poss(
            UProject(USelect(Rel("r"), col("faction").eq(lit("Enemy"))), ["id"])
        )
        assert set(execute_query(q, back).rows) == set(
            execute_query(q, vehicles_udb).rows
        )

    def test_generated_database_roundtrip(self, tmp_path):
        from repro.ugen import generate_uncertain

        bundle = generate_uncertain(
            scale=0.001, x=0.05, seed=8, tables=["nation", "region"]
        )
        save_udatabase(bundle.udb, tmp_path / "g")
        back = load_udatabase(tmp_path / "g")
        assert back.total_representation_rows() == bundle.udb.total_representation_rows()
        assert back.world_count() == bundle.udb.world_count()


class TestSegmentLog:
    """The log-structured contract: a save writes the segments the writes
    made since the last one and collects those they replaced; a segment
    the segment policy kept is never written again."""

    def _snapshot(self, directory):
        return {
            path.relative_to(directory): (path.stat().st_mtime_ns, path.read_bytes())
            for path in directory.rglob("*")
            if path.is_file()
        }

    def _segment_files(self, udb):
        return {
            pathlib.Path(partition_label(name, part), f"seg_{segment.segment_id:06d}.csv")
            for name in udb.relation_names()
            for part in udb.partitions(name)
            for segment in part.relation.segments()
        }

    def _check_resave(self, udb, target):
        """Save again: every file of a segment the last save wrote and
        the version still holds survives byte- and mtime-identical, the
        new segments get a file each, and no other segment file is left."""
        before = self._snapshot(target)
        save_udatabase(udb, target)
        after = self._snapshot(target)
        held = self._segment_files(udb)
        assert {p for p in after if p.name.startswith("seg_")} == held
        for path in held & before.keys():
            assert after[path] == before[path], path
        return held - before.keys()

    def test_save_after_inserts_writes_only_new_segments(self, vehicles_udb, tmp_path):
        from repro.sql import execute_sql

        target = tmp_path / "db"
        save_udatabase(vehicles_udb, target)
        bases = self._segment_files(vehicles_udb)
        execute_sql("insert into r values (100, 'Tank', 'Friend')", vehicles_udb)
        # one new segment per partition, beside its base
        new = self._check_resave(vehicles_udb, target)
        assert len(new) == 3 and bases <= self._segment_files(vehicles_udb)
        for i in (1, 2):
            # these merge into tiers: the merged segments are written, and
            # the ones they replaced collected
            execute_sql(
                f"insert into r values ({100 + i}, 'Tank', 'Friend')", vehicles_udb
            )
            self._check_resave(vehicles_udb, target)
        back = load_udatabase(target)
        assert _poss_rows(back) == _poss_rows(vehicles_udb)

    def test_save_after_delete_touches_only_the_manifest(self, tmp_path):
        from repro.sql import execute_sql

        udb = _sql_udb(count=10)
        target = tmp_path / "db"
        save_udatabase(udb, target)
        # one dead row in ten: below the dead share, no segment is rewritten
        execute_sql("delete from r where id = 1", udb)
        assert self._check_resave(udb, target) == set()
        # v3 carries the delete vector inline: no sidecar, non-empty column
        assert not any(path.name == "deleted.csv" for path in target.rglob("*"))
        manifest = (target / "manifest.csv").read_text()
        rows = manifest.strip().splitlines()
        assert rows[0].split(",")[-1] == "deleted"
        assert any(line.rsplit(",", 1)[1] for line in rows[1:])
        # a second one reaches it: each partition's segment is rewritten
        execute_sql("delete from r where id = 2", udb)
        assert len(self._check_resave(udb, target)) == 2
        assert _poss_rows(load_udatabase(target), ("id", "type")) == _poss_rows(udb, ("id", "type"))

    def test_compaction_save_writes_the_policy_layout_and_collects(self, tmp_path):
        # stored one row per segment, two rows dead: outside the policy
        udb = _sql_udb(count=8, layout=lambda part: scattered(part, deleted=(2, 5)))
        target = tmp_path / "db"
        save_udatabase(udb, target)
        scattered_files = self._segment_files(udb)
        assert len(scattered_files) == 2 * 8
        result = udb.compact()
        assert result.partitions == 2 and result.rows_dropped == 2 * 2
        assert self._check_resave(udb, target)
        for part in udb.partitions("r"):
            assert_tiered(part.relation)
        # GC swept every superseded segment file; the last row's segment,
        # kept by the policy, kept its file
        kept = scattered_files & self._segment_files(udb)
        assert {path.name for path in kept} == {"seg_000007.csv"}
        assert len(self._segment_files(udb)) == 2 * 2
        back = load_udatabase(target)
        assert _poss_rows(back, ("id", "type")) == _poss_rows(udb, ("id", "type"))

    def test_dml_roundtrip_preserves_answers_and_segments(
        self, vehicles_udb, tmp_path
    ):
        from repro.core import Poss, Rel, UProject, execute_query
        from repro.sql import execute_sql

        execute_sql("insert into r values (9, {'Tank', 'Jeep'}, 'Friend')", vehicles_udb)
        execute_sql("update r set faction = 'Enemy' where id = 9", vehicles_udb)
        execute_sql("delete from r where id = 1", vehicles_udb)
        save_udatabase(vehicles_udb, tmp_path / "db")
        back = load_udatabase(tmp_path / "db")
        # segment structure, delete vectors, and the minted variable survive
        for a, b in zip(
            sorted(vehicles_udb.partitions("r"), key=lambda p: p.value_names),
            sorted(back.partitions("r"), key=lambda p: p.value_names),
        ):
            assert [s.rows for s in a.relation.segments()] == [
                s.rows for s in b.relation.segments()
            ]
            assert a.relation.deleted_ordinals() == b.relation.deleted_ordinals()
        assert back.world_count() == vehicles_udb.world_count()
        query = Poss(UProject(Rel("r"), ["id", "type", "faction"]))
        assert set(execute_query(query, back).rows) == set(
            execute_query(query, vehicles_udb).rows
        )


def _poss_rows(udb, attributes=("id", "type", "faction")):
    from repro.core import Poss, Rel, UProject, execute_query

    query = Poss(UProject(Rel("r"), list(attributes)))
    return set(map(tuple, execute_query(query, udb).rows))


class TestCrashRecovery:
    """Fault injection: a save killed at any phase leaves the directory
    loading at exactly its last committed state."""

    def _churn(self, udb):
        from repro.sql import execute_sql

        for i in range(4):
            execute_sql(
                f"insert into r values ({70 + i}, 'Tank', 'Friend')", udb
            )
        execute_sql("delete from r where id = 3", udb)

    def test_crash_while_writing_segments(self, vehicles_udb, tmp_path, monkeypatch):
        from repro.core import persist

        target = tmp_path / "db"
        save_udatabase(vehicles_udb, target)
        committed = _poss_rows(load_udatabase(target))
        self._churn(vehicles_udb)

        real = persist.write_csv
        calls = {"n": 0}

        def flaky(relation, path):
            calls["n"] += 1
            if calls["n"] == 2:  # die mid-way through phase 1
                raise OSError("disk died while appending segments")
            return real(relation, path)

        monkeypatch.setattr(persist, "write_csv", flaky)
        with pytest.raises(OSError):
            save_udatabase(vehicles_udb, target)
        # the old manifest never saw the partial segments: old state loads
        assert _poss_rows(load_udatabase(target)) == committed

    def test_crash_at_manifest_rename(self, vehicles_udb, tmp_path, monkeypatch):
        from repro.core import persist

        target = tmp_path / "db"
        save_udatabase(vehicles_udb, target)
        committed = _poss_rows(load_udatabase(target))
        self._churn(vehicles_udb)

        def flaky(src, dst):
            if str(dst).endswith("manifest.csv"):
                raise OSError("power lost at the commit point")
            return os.replace(src, dst)

        monkeypatch.setattr(persist, "_rename", flaky)
        with pytest.raises(OSError):
            save_udatabase(vehicles_udb, target)
        assert _poss_rows(load_udatabase(target)) == committed
        # the recovery path: the same save, un-faulted, commits cleanly
        monkeypatch.setattr(persist, "_rename", os.replace)
        save_udatabase(vehicles_udb, target)
        assert _poss_rows(load_udatabase(target)) == _poss_rows(vehicles_udb)

    def test_a_save_after_a_crashed_one_rewrites_the_orphan_file(self, tmp_path, monkeypatch):
        """A save that dies at the manifest rename leaves its new segment
        file behind; a database loaded from the old manifest numbers its
        next segment with that file's name, and the next save must write
        it, not take the orphan's rows for it."""
        from repro.core import persist
        from repro.relational import Relation
        from repro.sql import execute_sql

        udb = UDatabase.from_certain({"r": Relation(["a"], [(i,) for i in range(10)])})
        target = tmp_path / "db"
        save_udatabase(udb, target)
        execute_sql("insert into r values (100)", udb)

        def flaky(src, dst):
            if str(dst).endswith("manifest.csv"):
                raise OSError("power lost at the commit point")
            return os.replace(src, dst)

        monkeypatch.setattr(persist, "_rename", flaky)
        with pytest.raises(OSError):
            save_udatabase(udb, target)
        monkeypatch.setattr(persist, "_rename", os.replace)
        reloaded = load_udatabase(target)
        execute_sql("insert into r values (200)", reloaded)
        save_udatabase(reloaded, target)
        back = load_udatabase(target)
        high = "possible (select a from r where a >= 100)"
        assert execute_sql(high, back).rows == execute_sql(high, reloaded).rows == [(200,)]

    def test_crash_during_compaction_save(self, tmp_path, monkeypatch):
        from repro.core import persist

        # one row per segment, the first dead: the VACUUM has tiers to merge
        udb = _sql_udb(count=10, layout=lambda part: scattered(part, deleted=(0,)))
        target = tmp_path / "db"
        save_udatabase(udb, target)
        committed = _poss_rows(load_udatabase(target), ("id", "type"))
        segment_files = sorted(p.name for p in target.rglob("seg_*.csv"))

        assert udb.compact().changed

        def flaky(src, dst):
            if str(dst).endswith("manifest.csv"):
                raise OSError("power lost committing the compacted manifest")
            return os.replace(src, dst)

        monkeypatch.setattr(persist, "_rename", flaky)
        with pytest.raises(OSError):
            save_udatabase(udb, target)
        # GC never ran: every file the committed manifest references is
        # still there, and the pre-compaction version loads bit-for-bit
        survivors = sorted(p.name for p in target.rglob("seg_*.csv"))
        assert set(segment_files) <= set(survivors)
        assert _poss_rows(load_udatabase(target), ("id", "type")) == committed
        monkeypatch.setattr(persist, "_rename", os.replace)
        save_udatabase(udb, target)
        back = load_udatabase(target)
        assert _poss_rows(back, ("id", "type")) == committed
        for part in back.partitions("r"):
            assert_tiered(part.relation)


class TestForeignManifest:
    """This program writes one layout; anything else is refused by name."""

    @pytest.mark.parametrize("dropped", ["deleted", "segments"])
    def test_manifest_without_a_column_is_a_value_error(self, vehicles_udb, tmp_path, dropped):
        target = tmp_path / "foreign"
        save_udatabase(vehicles_udb, target)
        with open(target / "manifest.csv", newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        keep = [i for i, column in enumerate(header) if column != dropped]
        with open(target / "manifest.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([row[i] for i in keep] for row in [header] + rows)
        with pytest.raises(ValueError) as error:
            load_udatabase(target)
        assert str(target) in str(error.value) and dropped in str(error.value)
