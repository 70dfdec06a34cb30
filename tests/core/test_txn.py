"""The multi-statement transaction and VACUUM SQL surface.

Lifecycle and refusal semantics for ``BEGIN``/``COMMIT``/``ROLLBACK`` and
``VACUUM [table]`` through both entry points — direct ``execute_sql``
(the database-level transaction) and :class:`Session` (per-connection) —
plus the staging guarantees: nothing visible before COMMIT, world
variables buffered, first-updater-wins conflicts with nothing published.
"""

from __future__ import annotations

import pytest

from repro.core.descriptor import Descriptor
from repro.core.txn import TransactionConflict, TxnResult
from repro.core.udatabase import CompactionResult, UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational.index import indexes_on
from repro.server.session import Session, SnapshotChanged
from repro.sql import execute_sql, prepare


def _udb() -> UDatabase:
    udb = UDatabase(auto_index=False)
    part = URelation.build(
        [(Descriptor(), i, (i, f"t{i}")) for i in range(3)],
        tid_column("r"),
        ["id", "type"],
    )
    udb.add_relation("r", ["id", "type"], [part])
    return udb


def _rows(udb):
    return set(map(tuple, execute_sql("possible (select id, type from r)", udb).rows))


# ----------------------------------------------------------------------
# lifecycle through execute_sql (the database-level transaction)
# ----------------------------------------------------------------------


def test_begin_stage_commit_lifecycle():
    udb = _udb()
    opened = execute_sql("begin", udb)
    assert isinstance(opened, TxnResult) and opened.status == "open"

    execute_sql("insert into r values (10, 'staged')", udb)
    execute_sql("update r set type = 'moved' where id = 0", udb)
    # nothing published yet: reads answer from the base catalog
    assert (10, "staged") not in _rows(udb)
    assert (0, "t0") in _rows(udb)

    done = execute_sql("commit", udb)
    assert done.status == "committed"
    assert done.statements == 2
    assert done.relations == ("r",)
    rows = _rows(udb)
    assert (10, "staged") in rows and (0, "moved") in rows


def test_rollback_discards_everything():
    udb = _udb()
    before = _rows(udb)
    version = udb.catalog_version
    execute_sql("begin", udb)
    execute_sql("insert into r values (10, 'doomed')", udb)
    execute_sql("delete from r where id = 0", udb)
    done = execute_sql("rollback", udb)
    assert done.status == "rolled_back" and done.statements == 2
    assert _rows(udb) == before
    assert udb.catalog_version == version


def test_noise_words_and_control_errors():
    udb = _udb()
    assert execute_sql("begin transaction", udb).status == "open"
    with pytest.raises(ValueError, match="already open"):
        execute_sql("begin work", udb)
    assert execute_sql("commit work", udb).status == "committed"
    with pytest.raises(ValueError, match="COMMIT without"):
        execute_sql("commit", udb)
    with pytest.raises(ValueError, match="ROLLBACK without"):
        execute_sql("rollback transaction", udb)


def test_immediates_cannot_be_prepared():
    udb = _udb()
    for sql in ("begin", "commit", "rollback", "vacuum", "vacuum r"):
        with pytest.raises(ValueError, match="cannot prepare"):
            prepare(sql, udb)


def test_uncertain_insert_buffers_world_variables_until_commit():
    udb = _udb()
    execute_sql("begin", udb)
    staged = execute_sql("insert into r values (11, {'a', 'b'})", udb)
    assert len(staged.variables) == 1
    variable = staged.variables[0]
    assert variable not in udb.world_table
    world_version = udb.world_table.version

    done = execute_sql("commit", udb)
    assert done.variables == (variable,)
    assert variable in udb.world_table
    assert udb.world_table.version > world_version
    assert {(11, "a"), (11, "b")} <= _rows(udb)


def test_conflicting_commit_publishes_nothing_and_retry_wins():
    udb = _udb()
    execute_sql("begin", udb)
    execute_sql("insert into r values (20, 'loser')", udb)
    # a direct write publishes under the transaction: first updater wins
    udb.insert("r", (21, "winner"))
    with pytest.raises(TransactionConflict, match="'r'"):
        execute_sql("commit", udb)
    rows = _rows(udb)
    assert (21, "winner") in rows and (20, "loser") not in rows
    # the failed transaction is gone: a fresh one can run and commit
    execute_sql("begin", udb)
    execute_sql("insert into r values (20, 'retry')", udb)
    assert execute_sql("commit", udb).status == "committed"
    assert (20, "retry") in _rows(udb)


# ----------------------------------------------------------------------
# VACUUM
# ----------------------------------------------------------------------


def test_vacuum_collapses_segment_stacks():
    udb = _udb()
    for i in range(5):
        execute_sql(f"insert into r values ({30 + i}, 'churn')", udb)
    execute_sql("delete from r where id = 31", udb)
    assert any(h["segment_count"] > 1 for h in udb.segment_health().values())
    before = _rows(udb)

    result = execute_sql("vacuum r", udb)
    assert isinstance(result, CompactionResult)
    assert result.relations == ("r",)
    assert result.rows_dropped >= 1
    for health in udb.segment_health().values():
        assert health["segment_count"] == 1
        assert health["deleted_rows"] == 0
    assert _rows(udb) == before


def test_vacuum_refused_inside_transaction():
    udb = _udb()
    execute_sql("begin", udb)
    with pytest.raises(ValueError, match="inside a transaction"):
        execute_sql("vacuum", udb)
    execute_sql("rollback", udb)


def test_vacuum_unknown_table_errors():
    udb = _udb()
    with pytest.raises(KeyError):
        execute_sql("vacuum nope", udb)


# ----------------------------------------------------------------------
# the session surface (per-connection transactions)
# ----------------------------------------------------------------------


def test_session_transactions_are_per_connection():
    udb = _udb()
    alice, bob = Session(udb), Session(udb)
    alice.execute("begin")
    alice.execute("insert into r values (40, 'alice')")
    # bob has no open transaction: his write publishes immediately
    bob.execute("insert into r values (41, 'bob')")
    assert (41, "bob") in _rows(udb)
    assert (40, "alice") not in _rows(udb)
    with pytest.raises(TransactionConflict):
        alice.execute("commit")
    # and bob's COMMIT has nothing to commit
    with pytest.raises(ValueError, match="COMMIT without"):
        bob.execute("commit")


def test_session_refuses_ddl_and_vacuum_inside_transaction():
    udb = _udb()
    session = Session(udb)
    session.execute("begin")
    with pytest.raises(ValueError, match="DDL cannot run inside a transaction"):
        session.execute("create index idx_t on u_r (type) using hash")
    with pytest.raises(ValueError, match="inside a transaction"):
        session.execute("vacuum")
    session.execute("rollback")


def test_execute_sql_refuses_ddl_inside_transaction():
    """The database-level transaction refuses what a session's does: both
    surfaces run one dispatch (``repro.sql.execute_immediate``)."""
    udb = _udb()
    execute_sql("begin", udb)
    with pytest.raises(ValueError, match="DDL cannot run inside a transaction"):
        execute_sql("create index idx_t on u_r_id_type (type) using hash", udb)
    assert "idx_t" not in [d[1] for d in udb.index_defs()]
    with pytest.raises(ValueError, match="DDL cannot run inside a transaction"):
        execute_sql("drop index idx_t", udb)
    assert execute_sql("rollback", udb).status == "rolled_back"
    execute_sql("create index idx_t on u_r_id_type (type) using hash", udb)
    assert "idx_t" in [d[1] for d in udb.index_defs()]


def test_staged_statements_of_one_shape_read_their_own_writes():
    """The matching query of a staged UPDATE / DELETE is planned and cached
    like any read; the next staged statement of the same shape must not be
    served the plan over the relation version the first one superseded."""
    udb = _udb()
    session = Session(udb)
    session.execute("begin")
    assert session.execute("delete from r where id = 0").count == 1
    assert session.execute("delete from r where id = 0").count == 0
    session.execute("insert into r values (0, 'back')")
    assert session.execute("update r set type = 'again' where id = 0").count == 1
    assert session.execute("delete from r where id <= 1").count == 2
    assert session.execute("delete from r where id <= 1").count == 0
    session.execute("commit")
    assert _rows(udb) == {(2, "t2")}


def _auto_udb() -> UDatabase:
    udb = UDatabase()
    udb.add_relation(
        "r",
        ["a"],
        [URelation.build([(Descriptor(), i, (i,)) for i in range(3)], tid_column("r"), ["a"])],
    )
    return udb


def test_create_index_by_another_session_survives_a_commit():
    """B's acknowledged CREATE INDEX lands between A's staging and A's
    COMMIT: the staged successor was derived before the attach, and at
    the parent its publish dropped the index."""
    udb = _auto_udb()
    a, b = Session(udb), Session(udb)
    a.execute("begin")
    a.execute("insert into r values (5)")
    b.execute("create index mine on u_r_a (a)")
    before = udb.index_defs()
    assert ("u_r_a", "mine", ("a",), "hash") in before
    assert a.execute("commit").status == "committed"  # DDL is no conflict
    assert udb.index_defs() == before
    assert (5,) in set(execute_sql("possible (select a from r where a = 5)", udb).rows)
    live = udb.partitions("r")[0].relation
    assert "mine" in [i.name for i in indexes_on(live)]


def test_drop_index_by_another_session_survives_a_commit():
    """The mirror image: the staged successor carried the definition B
    dropped, and at the parent A's COMMIT resurrected it."""
    udb = _auto_udb()
    a, b = Session(udb), Session(udb)
    execute_sql("possible (select a from r where a = 1)", udb)  # builds all three
    a.execute("begin")
    a.execute("update r set a = 7 where a = 1")
    b.execute("drop index idx_u_r_a_a")  # built
    a.execute("delete from r where a = 2")
    before = udb.index_defs()
    assert [d[1] for d in before] == ["idx_u_r_a_tid"]
    assert a.execute("commit").status == "committed"
    assert udb.index_defs() == before
    live = udb.partitions("r")[0].relation
    assert [i.name for i in indexes_on(live)] == ["idx_u_r_a_tid"]
    assert set(execute_sql("possible (select a from r)", udb).rows) == {(0,), (7,)}


def test_session_snapshot_refuses_transaction_control():
    udb = _udb()
    session = Session(udb)
    with session.snapshot() as snap:
        with pytest.raises(SnapshotChanged):
            snap.execute("begin")
    # outside the block the session works again
    assert session.execute("begin").status == "open"
    assert session.execute("rollback").status == "rolled_back"
