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
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import execute_query
from repro.core.descriptor import Descriptor
from repro.core.query import Poss, Rel, UProject
from repro.core.udatabase import UDatabase
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


def _build(initial):
    udb = UDatabase(auto_index=False)
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
    """Run one statement against the engine and the list model alike."""
    if op[0] == "insert":
        values = ", ".join(f"({i}, '{t}')" for i, t in op[1])
        result = execute_sql(f"insert into r values {values}", udb)
        model.extend(op[1])
        assert result.count == len(op[1])
    elif op[0] == "update":
        _, value, cmp, k = op
        result = execute_sql(f"update r set type = '{value}' where id {cmp} {k}", udb)
        hits = [i for i, row in enumerate(model) if _matches(row, cmp, k)]
        for i in hits:
            model[i] = (model[i][0], value)
        assert result.count == len(hits)
    else:
        _, cmp, k = op
        result = execute_sql(f"delete from r where id {cmp} {k}", udb)
        survivors = [row for row in model if not _matches(row, cmp, k)]
        assert result.count == len(model) - len(survivors)
        model[:] = survivors


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_dml_equals_rebuilt_across_modes_and_access_paths(script):
    initial, ops = script
    udb = _build(initial)
    model = list(initial)
    for op in ops:
        _apply(udb, model, op)
    rebuilt = _build(model)
    expected = set(model)  # Poss answers are distinct row sets
    query = Poss(UProject(Rel("r"), ["id", "type"]))
    for mode in MODES:
        for use_indexes in (True, False):
            for db in (udb, rebuilt):
                answer = set(
                    map(
                        tuple,
                        execute_query(
                            query, db, mode=mode, use_indexes=use_indexes
                        ).rows,
                    )
                )
                assert answer == expected, (mode, use_indexes, db is udb)


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_dml_leaves_consistent_segment_accounting(script):
    """Structural half of the invariant: per partition, materialized rows
    are exactly the live ordinals of the concatenated segments, and both
    partitions agree on the surviving tuple ids."""
    initial, ops = script
    udb = _build(initial)
    model = list(initial)
    for op in ops:
        _apply(udb, model, op)
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
