"""Property: a DML'd database answers exactly like a rebuilt one.

A random sequence of INSERT / UPDATE / DELETE statements leaves the
relation as a stack of immutable segments plus delete vectors.  The
invariant the whole write path rests on: querying that segmented,
delete-marked representation is indistinguishable — in every execution
mode, with and without access paths — from a database rebuilt from
scratch holding only the surviving logical tuples.

The relation is vertically partitioned (``id`` | ``type``) so every
statement exercises the multi-partition write path, and a Python-list
model supplies the ground truth independently of either engine path.

Index DDL is drawn between the writes: ``CREATE INDEX`` (hash and sorted,
fresh names and names already taken) and ``DROP INDEX`` (of user-created
and auto-created definitions, built or still pending, and of names that
do not exist), against a model that is a set of ``(table, name, columns,
kind)`` — the definitions live on the partition relations, so every
write-path derivation, ``VACUUM`` and ``COMMIT`` has to carry them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import execute_query
from repro.core.descriptor import Descriptor
from repro.core.query import Poss, Rel, UProject
from repro.core.udatabase import UDatabase
from repro.core.urelation import URelation, tid_column
from repro.relational.index import built_indexes_on
from repro.server.session import Session
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

#: user names, and two names the auto-index policy uses (taken when it is on)
index_names = st.sampled_from(["mine", "yours", "idx_u_r_id_id", "idx_u_r_type_tid"])
creates = st.tuples(
    st.just("create"),
    index_names,
    st.sampled_from(
        [("u_r_id", "id"), ("u_r_id", "tid_r"), ("u_r_type", "type"), ("u_r_type", "tid_r")]
    ),
    st.sampled_from(["hash", "sorted"]),
)
drops = st.tuples(st.just("drop"), index_names)

scripts = st.tuples(
    rows,  # initial contents
    st.lists(
        st.one_of(inserts, updates, deletes, creates, drops), min_size=1, max_size=6
    ),
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


def _apply_ddl(udb, defs, op):
    """Run one index DDL statement against the engine and the set of
    ``(table, name, columns, kind)`` alike; a refused one changes neither."""
    if op[0] == "create":
        _, name, (table, column), kind = op
        definition = (table, name, (column,), kind)
        sql = f"create index {name} on {table} ({column}) using {kind}"
        if any(d[1] == name for d in defs) and definition not in defs:
            with pytest.raises(KeyError, match="already exists"):
                execute_sql(sql, udb)
        else:
            index = execute_sql(sql, udb)
            assert (index.name, index.columns, index.kind) == (name, (column,), kind)
            defs.add(definition)
    else:
        taken = {d for d in defs if d[1] == op[1]}
        if taken:
            execute_sql(f"drop index {op[1]}", udb)
            defs -= taken
        else:
            with pytest.raises(KeyError, match="not found"):
                execute_sql(f"drop index {op[1]}", udb)
    assert udb.index_defs() == sorted(defs)


def _apply(udb, model, op, defs, run=None):
    """Run one statement against the engine and the models alike (DML
    through ``run``, by default this database's ``execute_sql``)."""
    run = run or (lambda sql: execute_sql(sql, udb))
    if op[0] in ("create", "drop"):
        _apply_ddl(udb, defs, op)
    elif op[0] == "insert":
        values = ", ".join(f"({i}, '{t}')" for i, t in op[1])
        result = run(f"insert into r values {values}")
        model.extend(op[1])
        assert result.count == len(op[1])
    elif op[0] == "update":
        _, value, cmp, k = op
        result = run(f"update r set type = '{value}' where id {cmp} {k}")
        hits = [i for i, row in enumerate(model) if _matches(row, cmp, k)]
        for i in hits:
            model[i] = (model[i][0], value)
        assert result.count == len(hits)
    else:
        _, cmp, k = op
        result = run(f"delete from r where id {cmp} {k}")
        survivors = [row for row in model if not _matches(row, cmp, k)]
        assert result.count == len(model) - len(survivors)
        model[:] = survivors


def _answers(db, mode, use_indexes):
    query = Poss(UProject(Rel("r"), ["id", "type"]))
    return set(
        map(tuple, execute_query(query, db, mode=mode, use_indexes=use_indexes).rows)
    )


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_dml_equals_rebuilt_across_modes_and_access_paths(script):
    initial, ops = script
    udb = _build(initial)
    model, defs = list(initial), set()
    for op in ops:
        _apply(udb, model, op, defs)
    assert udb.index_defs() == sorted(defs)
    rebuilt = _build(model)
    expected = set(model)  # Poss answers are distinct row sets
    for mode in MODES:
        for use_indexes in (True, False):
            for db in (udb, rebuilt):
                answer = _answers(db, mode, use_indexes)
                assert answer == expected, (mode, use_indexes, db is udb)


writes = st.one_of(inserts, updates, deletes)
ddl = st.one_of(creates, drops)
#: BEGIN, an insert (so both partitions have a staged successor), more
#: writes with another connection's DDL in between, then the end
transactions = st.tuples(
    st.just("txn"),
    st.builds(
        lambda first, rest: [first] + rest,
        inserts,
        st.lists(st.one_of(ddl, ddl, writes), min_size=1, max_size=3),
    ),
    st.sampled_from(["commit", "commit", "rollback"]),
)
histories = st.lists(
    st.one_of(
        writes, ddl, transactions, transactions, st.sampled_from([("vacuum",), ("read",)])
    ),
    min_size=1,
    max_size=5,
)


def _built(udb):
    return {
        label: {index.name for index in built_indexes_on(part.relation)}
        for label, part in zip(("u_r_id", "u_r_type"), udb.partitions("r"))
    }


@settings(max_examples=40, deadline=None)
@given(rows, histories)
def test_index_ddl_inside_a_write_history(initial, history):
    """One connection writes (autocommit and ``BEGIN…COMMIT`` /
    ``ROLLBACK``, ``VACUUM`` between), another issues index DDL at any
    point, also while the writer's transaction is open.  After every step
    the database's definitions are the model's, committed answers are the
    model's, and a DDL statement built or dropped nothing but what it
    named."""
    udb = _build(initial, auto_index=True)
    writer = Session(udb)
    committed = list(initial)
    defs = set(udb.index_defs())
    assert len(defs) == 4  # the auto policy: tid hash + value sorted, twice

    def step(op, model):
        if op[0] in ("create", "drop"):
            before = _built(udb)
            _apply_ddl(udb, defs, op)
            target = op[2][0] if op[0] == "create" else None
            for label, names in _built(udb).items():
                if label == target:
                    assert names - before[label] <= {op[1]}
                else:
                    assert names <= before[label]
        elif op[0] == "vacuum":
            writer.execute("vacuum")
        elif op[0] == "read":  # plans with access paths: builds what is pending
            execute_sql("possible (select type from r where id = 3)", udb)
        else:
            _apply(udb, model, op, defs, run=writer.execute)
        assert udb.index_defs() == sorted(defs)
        # the reference protocol looks for no access path: pending stays pending
        assert _answers(udb, "rows", False) == set(committed)

    for op in history:
        if op[0] != "txn":
            step(op, committed)
            continue
        _, inner, end = op
        staged = list(committed)
        writer.execute("begin")
        for inner_op in inner:
            step(inner_op, staged)
        writer.execute(end)  # the DDL in between is never a conflict
        if end == "commit":
            committed = staged
        assert udb.index_defs() == sorted(defs)
        assert _answers(udb, "rows", False) == set(committed)
    rebuilt = _build(committed)
    for mode in MODES:
        for use_indexes in (True, False):
            assert _answers(udb, mode, use_indexes) == set(committed)
            assert _answers(rebuilt, mode, use_indexes) == set(committed)


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_dml_leaves_consistent_segment_accounting(script):
    """Structural half of the invariant: per partition, materialized rows
    are exactly the live ordinals of the concatenated segments, and both
    partitions agree on the surviving tuple ids."""
    initial, ops = script
    udb = _build(initial)
    model, defs = list(initial), set()
    for op in ops:
        _apply(udb, model, op, defs)
    surviving = None
    for part in udb.partitions("r"):
        relation = part.relation
        flat = [row for segment in relation.segments() for row in segment.rows]
        deleted = relation.deleted_ordinals()
        live = [row for i, row in enumerate(flat) if i not in deleted]
        assert list(relation.rows) == live
        tid_position = relation.schema.resolve(tid_column("r"))
        tids = sorted(row[tid_position] for row in relation.rows)
        if surviving is None:
            surviving = tids
        else:
            assert tids == surviving
    assert surviving is not None and len(surviving) == len(model)
