"""The multi-statement transaction and VACUUM SQL surface.

Lifecycle and refusal semantics for ``BEGIN``/``COMMIT``/``ROLLBACK`` on
a :class:`Session`, the only holder of a transaction, and for ``VACUUM
[table]`` through both entry points; ``execute_sql`` autocommits every
statement and refuses transaction control, so no caller's write can land
in a transaction another caller opened.  Plus the staging guarantees:
nothing visible before COMMIT, world variables buffered,
first-committer-wins conflicts with nothing published, and the reads of
snapshot isolation: a transaction reads its BEGIN catalog with its own
writes in, ``conf`` / ``certain`` included.  The interleavings are
checked against a model in ``test_isolation_property.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.descriptor import Descriptor
from repro.core.txn import TransactionConflict, TxnResult
from repro.core.udatabase import CompactionResult, UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational import plan_cache_stats
from repro.relational.index import indexes_on
from repro.server.session import Session
from repro.sql import execute_sql, prepare
from tests.conftest import build_vehicles_udb, without_indexes


def _udb() -> UDatabase:
    udb = UDatabase()
    part = URelation.build(
        [(Descriptor(), i, (i, f"t{i}")) for i in range(3)],
        tid_column("r"),
        ["id", "type"],
    )
    udb.add_relation("r", ["id", "type"], [part])
    return without_indexes(udb)


def _rows(udb):
    return set(map(tuple, execute_sql("possible (select id, type from r)", udb).rows))


# ----------------------------------------------------------------------
# lifecycle on a session
# ----------------------------------------------------------------------


def test_begin_stage_commit_lifecycle():
    udb = _udb()
    session = Session(udb)
    opened = session.execute("begin")
    assert isinstance(opened, TxnResult) and opened.status == "open"

    session.execute("insert into r values (10, 'staged')")
    session.execute("update r set type = 'moved' where id = 0")
    # nothing published yet: reads answer from the base catalog
    assert (10, "staged") not in _rows(udb)
    assert (0, "t0") in _rows(udb)

    done = session.execute("commit")
    assert done.status == "committed"
    assert done.statements == 2
    assert done.relations == ("r",)
    rows = _rows(udb)
    assert (10, "staged") in rows and (0, "moved") in rows


def test_rollback_discards_everything():
    udb = _udb()
    session = Session(udb)
    before = _rows(udb)
    version = udb.catalog_version
    session.execute("begin")
    session.execute("insert into r values (10, 'doomed')")
    session.execute("delete from r where id = 0")
    done = session.execute("rollback")
    assert done.status == "rolled_back" and done.statements == 2
    assert _rows(udb) == before
    assert udb.catalog_version == version


def test_noise_words_and_control_errors():
    session = Session(_udb())
    assert session.execute("begin transaction").status == "open"
    with pytest.raises(ValueError, match="already open"):
        session.execute("begin work")
    assert session.execute("commit work").status == "committed"
    with pytest.raises(ValueError, match="COMMIT without"):
        session.execute("commit")
    with pytest.raises(ValueError, match="ROLLBACK without"):
        session.execute("rollback transaction")


def test_execute_sql_refuses_transaction_control():
    """``execute_sql`` autocommits: BEGIN / COMMIT / ROLLBACK name the
    session API instead of opening a transaction every caller shares."""
    udb = _udb()
    for sql in ("begin", "begin transaction", "commit", "rollback work"):
        with pytest.raises(ValueError, match=r"udb\.session\(\)"):
            execute_sql(sql, udb)
    assert execute_sql("insert into r values (10, 'now')", udb).count == 1
    assert (10, "now") in _rows(udb)


def _in_thread(statement):
    """Run ``statement()`` on a thread of its own: its result or error."""
    out = {}

    def run():
        try:
            out["result"] = statement()
        except Exception as error:
            out["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return out


def test_an_autocommit_write_never_lands_in_another_threads_transaction():
    """Thread B's acknowledged INSERT stays, whatever thread A sends
    through ``execute_sql`` around it.  With a transaction on the
    database, A's BEGIN opened it, B's INSERT answered ``INSERT 1`` but
    staged into it, and A's ROLLBACK discarded B's row."""
    udb = _udb()
    begin = _in_thread(lambda: execute_sql("begin", udb))
    insert = _in_thread(lambda: execute_sql("insert into r values (99, 'b')", udb))
    rollback = _in_thread(lambda: execute_sql("rollback", udb))
    assert insert["result"].count == 1
    assert (99, "b") in _rows(udb)
    assert isinstance(begin.get("error"), ValueError)
    assert isinstance(rollback.get("error"), ValueError)


def test_immediates_cannot_be_prepared():
    udb = _udb()
    for sql in ("begin", "commit", "rollback", "vacuum", "vacuum r"):
        with pytest.raises(ValueError, match="cannot prepare"):
            prepare(sql, udb)


def test_uncertain_insert_buffers_world_variables_until_commit():
    udb = _udb()
    session = Session(udb)
    session.execute("begin")
    staged = session.execute("insert into r values (11, {'a', 'b'})")
    assert len(staged.variables) == 1
    variable = staged.variables[0]
    assert variable not in udb.world_table
    world_version = udb.world_table.version

    done = session.execute("commit")
    assert done.variables == (variable,)
    assert variable in udb.world_table
    assert udb.world_table.version > world_version
    assert {(11, "a"), (11, "b")} <= _rows(udb)


def test_conflicting_commit_publishes_nothing_and_retry_wins():
    udb = _udb()
    session = Session(udb)
    session.execute("begin")
    session.execute("insert into r values (20, 'loser')")
    # a direct write publishes under the transaction: first updater wins
    udb.insert("r", (21, "winner"))
    with pytest.raises(TransactionConflict, match="'r'"):
        session.execute("commit")
    rows = _rows(udb)
    assert (21, "winner") in rows and (20, "loser") not in rows
    # the failed transaction is gone: a fresh one can run and commit
    session.execute("begin")
    session.execute("insert into r values (20, 'retry')")
    assert session.execute("commit").status == "committed"
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
    session = Session(_udb())
    session.execute("begin")
    with pytest.raises(ValueError, match="inside a transaction"):
        session.execute("vacuum")
    session.execute("rollback")


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
    for sql in ("create index idx_t on u_r_id_type (type) using hash", "drop index idx_t"):
        with pytest.raises(ValueError, match="DDL cannot run inside a transaction"):
            session.execute(sql)
    assert "idx_t" not in [d[1] for d in udb.index_defs()]
    with pytest.raises(ValueError, match="inside a transaction"):
        session.execute("vacuum")
    assert session.execute("rollback").status == "rolled_back"
    session.execute("create index idx_t on u_r_id_type (type) using hash")
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
    """A snapshot block is a read-only transaction: BEGIN, COMMIT and
    ROLLBACK inside it are refused like DDL inside a transaction, and a
    block cannot open inside a transaction."""
    udb = _udb()
    session = Session(udb)
    with session.snapshot() as snap:
        for sql in ("begin", "commit", "rollback"):
            with pytest.raises(ValueError, match="cannot run inside a snapshot"):
                snap.execute(sql)
    # outside the block the session works again
    assert session.execute("begin").status == "open"
    with pytest.raises(ValueError, match="already open"):
        with session.snapshot():
            pass  # pragma: no cover
    assert session.execute("rollback").status == "rolled_back"


# ----------------------------------------------------------------------
# reads inside a transaction: the BEGIN catalog with its own writes in
# ----------------------------------------------------------------------


def _answer(result):
    return set(map(tuple, result.rows))


def test_a_transaction_reads_its_own_insert():
    udb = build_vehicles_udb()
    a, b = Session(udb), Session(udb)
    a.execute("begin")
    a.execute("insert into r values (99, 'Tank', 'Friend')")
    sql = "possible (select id, type from r where id = 99)"
    assert _answer(a.execute(sql)) == {(99, "Tank")}
    assert _answer(b.execute(sql)) == set()
    a.execute("commit")
    assert _answer(b.execute(sql)) == {(99, "Tank")}


def test_a_repeated_read_is_stable_across_another_sessions_autocommit():
    udb = build_vehicles_udb()
    a, b = Session(udb), Session(udb)
    sql = "possible (select type from r where id = 4)"
    a.execute("begin")
    first = _answer(a.execute(sql))
    assert first == {("Tank",), ("Transport",)}
    assert b.execute("update r set type = 'Boat' where id = 4").count == 1
    assert _answer(a.execute(sql)) == first
    assert _answer(b.execute(sql)) == {("Boat",)}
    a.execute("rollback")
    assert _answer(a.execute(sql)) == {("Boat",)}


def test_conf_and_certain_read_the_transactions_own_variables():
    """The staged uncertain insert mints ``r_<tid>_type``: a ``conf`` or
    ``certain`` read inside the transaction resolves it in a world table
    of the transaction's own, which publishes nothing before COMMIT."""
    udb = build_vehicles_udb()
    a = Session(udb)
    queries = (
        "conf (select type from r where id = 98)",
        "certain (select type from r where id = 98)",
        "certain (select id from r where id = 98)",
    )
    a.execute("begin")
    (var,) = a.execute("insert into r values (98, {'Tank', 'Jeep'}, 'Friend')").variables
    staged = [_answer(a.execute(sql)) for sql in queries]
    assert var not in udb.world_table
    a.execute("commit")
    assert staged == [_answer(a.execute(sql)) for sql in queries]
    assert staged == [{("Tank", 0.5), ("Jeep", 0.5)}, set(), {(98,)}]


def test_a_reader_sees_all_of_a_commit_or_none_of_it(monkeypatch):
    """A query planned while a COMMIT publishes reads one catalog: both
    relations' old rows or both relations' new ones, never one of each.
    The COMMIT fires deterministically between the two leaves' reads of
    their partitions (a COMMIT that published ``a`` then ``b`` let the
    second leaf read ``b``'s new version beside ``a``'s old one)."""
    import sys

    translate_module = sys.modules["repro.core.translate"]
    udb = UDatabase()
    for name in ("a", "b"):
        part = URelation.build([(Descriptor(), 1, (1, "old"))], tid_column(name), ["k", "v"])
        udb.add_relation(name, ["k", "v"], [part])
    without_indexes(udb)
    writer = Session(udb)
    writer.execute("begin")
    writer.execute("update a set v = 'new' where k = 1")
    writer.execute("update b set v = 'new' where k = 1")
    real = translate_module._Translator._partitions_of
    committed = []

    def partitions_of(self, query, needed):
        parts = real(self, query, needed)
        if not committed:  # after the first leaf's read
            committed.append(writer.execute("commit").status)
        return parts

    monkeypatch.setattr(translate_module._Translator, "_partitions_of", partitions_of)
    sql = "possible (select x.v, y.v from a x, b y where x.k = y.k)"
    answer = set(map(tuple, execute_sql(sql, udb).rows))
    assert committed == ["committed"]
    assert answer in ({("old", "old")}, {("new", "new")})
    monkeypatch.undo()
    assert set(map(tuple, execute_sql(sql, udb).rows)) == {("new", "new")}


# ----------------------------------------------------------------------
# staged matching queries share the database's plans
# ----------------------------------------------------------------------


def test_a_finished_transaction_leaves_nothing_in_the_plan_cache():
    """A staged UPDATE plans its matching query under the database's own
    key: once an autocommit UPDATE of the shape warmed it, transactions of
    that shape reuse the entry and leave none behind."""
    udb = _udb()
    session = Session(udb)
    assert session.execute("update r set type = 'warm' where id = 0").count == 1
    before = plan_cache_stats()
    for k in range(10, 60):
        session.execute("begin")
        session.execute(f"insert into r values ({k}, 'new')")
        assert session.execute(f"update r set type = 'moved' where id = {k}").count == 1
        assert session.execute("commit").status == "committed"
    after = plan_cache_stats()
    assert after["size"] == before["size"]
    assert after["evictions"] == 0
    assert after["misses"] - before["misses"] <= 2  # statistics generations
    assert (59, "moved") in _rows(udb) and (0, "warm") in _rows(udb)


def test_a_shared_matching_plan_replans_across_a_staged_facts_flip():
    """The uncertain INSERT makes the staged version of ``r``'s certain
    partition lose its all-⊤ fact: the staged UPDATE re-plans and matches
    the staged row; an autocommit UPDATE of the same shape from another
    session re-plans back and matches only published rows."""
    udb = _udb()
    a, b = Session(udb), Session(udb)
    for session in (a, b):
        session.prepare("upd", "update r set type = $1 where id = $2")
    assert b.execute_prepared("upd", "x", 0).count == 1  # plans over all-⊤
    a.execute("begin")
    inserted = a.execute("insert into r values (10, {'p', 'q'})")
    (var,) = inserted.variables

    stats = plan_cache_stats()
    assert a.execute_prepared("upd", "y", 10).count == 1
    staged = plan_cache_stats()
    assert staged["invalidations"] == stats["invalidations"] + 1
    assert staged["misses"] == stats["misses"] + 1

    assert b.execute_prepared("upd", "z", 10).count == 0
    published = plan_cache_stats()
    assert published["invalidations"] == staged["invalidations"] + 1
    assert published["misses"] == staged["misses"] + 1
    assert published["size"] == stats["size"]

    assert a.execute("commit").variables == (var,)
    assert _rows(udb) == {(0, "x"), (1, "t1"), (2, "t2"), (10, "y")}
    assert udb.world_table.domain(var) == (0, 1)
    (part,) = udb.partitions("r")
    # c1, w1, tid, id, type: one alternative per world of the new variable
    assert sorted(
        (row[:2], row[3:]) for row in part.relation.rows if row[3] == 10
    ) == [((var, 0), (10, "y")), ((var, 1), (10, "y"))]
