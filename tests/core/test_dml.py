"""End-to-end DML: INSERT / UPDATE / DELETE through every entry point.

Covers the SQL surface (``execute_sql``), prepared ``$n`` statements,
sessions (including the snapshot interaction), and the exact
catalog-version accounting DML promises: one bump per replaced relation
plus one world-table bump per minted variable — nothing else.
"""

from __future__ import annotations

import pytest

from repro.core import execute_query
from repro.core.descriptor import Descriptor
from repro.core.query import Certain, Poss, Rel, USelect
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational.expressions import col, lit
from repro.sql import DMLResult, execute_sql, prepare

from tests.conftest import build_vehicles_udb, without_indexes


def _single_partition_udb() -> UDatabase:
    """One relation, one partition covering both columns — the layout
    under which catalog-version deltas are exact."""
    udb = UDatabase()
    part = URelation.build(
        [(Descriptor(), i, (i, f"t{i}")) for i in range(3)],
        tid_column("r"),
        ["id", "type"],
    )
    udb.add_relation("r", ["id", "type"], [part])
    return without_indexes(udb)


def _possible_rows(udb, sql="possible (select id, type from r)"):
    return set(map(tuple, execute_sql(sql, udb).rows))


# ----------------------------------------------------------------------
# INSERT
# ----------------------------------------------------------------------


def test_insert_certain_rows_visible():
    udb = _single_partition_udb()
    result = execute_sql("insert into r values (10, 'a'), (11, 'b')", udb)
    assert result == DMLResult("insert", 2, ())
    rows = _possible_rows(udb)
    assert {(10, "a"), (11, "b")} <= rows
    assert len(rows) == 5


def test_insert_uncertain_mints_fresh_variable():
    udb = _single_partition_udb()
    result = execute_sql("insert into r values (10, {'a', 'b', 'c'})", udb)
    assert result.count == 1
    assert len(result.variables) == 1
    var = result.variables[0]
    # fresh variable with domain 0..k-1 (Section 2's construction)
    assert udb.world_table.domain(var) == (0, 1, 2)
    # all alternatives are possible, none is certain
    possible = _possible_rows(udb)
    assert {(10, "a"), (10, "b"), (10, "c")} <= possible
    certain = set(
        map(
            tuple,
            execute_query(
                Certain(USelect(Rel("r"), col("id").eq(lit(10)))), udb
            ).rows,
        )
    )
    assert certain == set()


def test_insert_arity_mismatch_rejected():
    udb = _single_partition_udb()
    with pytest.raises(ValueError, match="expects 2 values"):
        execute_sql("insert into r values (1)", udb)


def test_catalog_version_deltas_are_exact():
    udb = _single_partition_udb()
    v = udb.catalog_version
    execute_sql("insert into r values (10, 'a')", udb)
    assert udb.catalog_version - v == 1  # one replaced relation
    v = udb.catalog_version
    result = execute_sql("insert into r values (11, {'a', 'b'})", udb)
    assert len(result.variables) == 1
    assert udb.catalog_version - v == 2  # one relation + one minted variable
    v = udb.catalog_version
    execute_sql("update r set type = 'z' where id = 11", udb)
    assert udb.catalog_version - v == 1
    v = udb.catalog_version
    execute_sql("delete from r where id = 10", udb)
    assert udb.catalog_version - v == 1


# ----------------------------------------------------------------------
# UPDATE / DELETE semantics over vertical partitions
# ----------------------------------------------------------------------


def test_update_possible_worlds_match_rewrites_all_alternatives():
    """A tuple matching its WHERE in *one* world is rewritten in all."""
    udb = build_vehicles_udb()
    # vehicle d is a Tank only when y=1; the update must still rewrite
    # both of d's faction alternatives
    result = execute_sql("update r set faction = 'Neutral' where type = 'Tank'", udb)
    assert result.statement == "update"
    rows = set(
        map(tuple, execute_sql("possible (select id, faction from r)", udb).rows)
    )
    # vehicles a (id 1), c (id 2 or 3), d (id 4) are possibly Tanks: every
    # alternative of theirs is Neutral now; b (id 2 or 3) never is a Tank
    # and keeps Friend
    assert rows == {
        (1, "Neutral"),
        (2, "Neutral"),
        (3, "Neutral"),
        (4, "Neutral"),
        (2, "Friend"),
        (3, "Friend"),
    }


def test_update_untouched_partitions_keep_their_relation_objects():
    udb = build_vehicles_udb()
    before = {tuple(p.value_names): p.relation for p in udb.partitions("r")}
    execute_sql("update r set faction = 'Neutral' where id = 2", udb)
    after = {tuple(p.value_names): p.relation for p in udb.partitions("r")}
    assert after[("id",)] is before[("id",)]
    assert after[("type",)] is before[("type",)]
    assert after[("faction",)] is not before[("faction",)]


def test_delete_removes_every_alternative_and_shares_segments():
    udb = build_vehicles_udb()
    before = {tuple(p.value_names): p.relation for p in udb.partitions("r")}
    result = execute_sql("delete from r where type = 'Tank'", udb)
    assert result.statement == "delete"
    rows = _possible_rows(udb, "possible (select id from r)")
    # a, c, d are possibly Tanks and vanish entirely; only b (id 2 or 3) stays
    assert rows == {(2,), (3,)}
    # delete only widens delete vectors: the immutable segments are shared
    for key, old in before.items():
        new = {tuple(p.value_names): p.relation for p in udb.partitions("r")}[key]
        if new is not old:
            assert new.segments() == old.segments()


def test_update_unknown_column_and_uncertain_set_rejected():
    from repro.core.dml import UncertainValue, update_where
    from repro.sql import SqlSyntaxError

    udb = _single_partition_udb()
    with pytest.raises(ValueError, match="unknown column"):
        execute_sql("update r set nope = 1", udb)
    # the grammar keeps alternative lists out of SET ...
    with pytest.raises(SqlSyntaxError):
        execute_sql("update r set type = {'a', 'b'}", udb)
    # ... and the executor refuses them defensively too
    with pytest.raises(ValueError, match="only supported in INSERT"):
        update_where(udb, udb.catalog(), "r", [("type", UncertainValue(["a", "b"]))])


# ----------------------------------------------------------------------
# Prepared statements and plan-cache interaction
# ----------------------------------------------------------------------


def test_prepared_insert_runs_per_binding():
    udb = _single_partition_udb()
    statement = prepare("insert into r values ($1, $2)", udb)
    assert prepare("insert into r values ($1, $2)", udb) is statement
    assert statement.run(10, "a").count == 1
    assert statement.run(11, "b").count == 1
    assert {(10, "a"), (11, "b")} <= _possible_rows(udb)


def test_prepared_delete_with_param_condition():
    udb = _single_partition_udb()
    statement = prepare("delete from r where id = $1", udb)
    assert statement.run(0).count == 1
    assert statement.run(1).count == 1
    assert statement.run(99).count == 0
    assert _possible_rows(udb) == {(2, "t2")}


def test_cached_select_sees_rows_after_dml():
    """DML invalidates exactly the cached plans that scanned the table."""
    udb = _single_partition_udb()
    query = prepare("possible (select id from r where id >= $1)", udb)
    assert set(map(tuple, query.run(0).rows)) == {(0,), (1,), (2,)}
    execute_sql("insert into r values (7, 'x')", udb)
    assert set(map(tuple, query.run(0).rows)) == {(0,), (1,), (2,), (7,)}
    execute_sql("delete from r where id = 0", udb)
    assert set(map(tuple, query.run(0).rows)) == {(1,), (2,), (7,)}


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------


def test_session_routes_dml_and_snapshot_rejects_it():
    udb = _single_partition_udb()
    session = udb.session()
    result = session.execute("insert into r values (10, 'a')", ())
    assert isinstance(result, DMLResult) and result.count == 1
    with session.snapshot():
        first = set(map(tuple, session.execute("possible (select id from r)", ()).rows))
        with pytest.raises(ValueError, match="DML cannot run inside a snapshot"):
            session.execute("delete from r where id = 10", ())
        # the read-only snapshot is still intact after the refused write
        again = set(map(tuple, session.execute("possible (select id from r)", ()).rows))
        assert again == first
    assert session.execute("delete from r where id = 10", ()).count == 1


def test_snapshot_read_stays_put_after_foreign_dml():
    udb = _single_partition_udb()
    reader = udb.session()
    writer = udb.session()
    sql = "possible (select id, type from r)"
    with reader.snapshot():
        before = set(map(tuple, reader.execute(sql, ()).rows))
        writer.execute("insert into r values (10, 'a')", ())
        # the block reads the catalog it began with: no refusal, no new row
        assert set(map(tuple, reader.execute(sql, ()).rows)) == before
    # outside the snapshot the new row is visible
    assert (10, "a") in set(map(tuple, reader.execute(sql, ()).rows))
    assert (10, "a") in _possible_rows(udb)
