"""Property: a cached plan's predicate caches answer like a fresh plan on every version.

A literal scan filter (a ``Fused Pipeline`` over a ``Seq Scan``) and a
literal probe filter (an ``Index Nested Loop Join``'s ``Probe Filter``)
are evaluated once per immutable segment and kept on the plan node: the
kept positions and gathered columns of the scan, the restricted probe
table of the join.  A version reuses what its segments already answered
and drops its own dead rows.  Over random histories of INSERT (certain
and ``{a, b}`` cells), UPDATE, DELETE and VACUUM, the two statements
below run from the plan cache after every step and must answer exactly
like ``reference_query``, which evaluates the logical plan and plans
nothing physical; the history passes through every version shape (one clean
segment, several segments, segments with dead rows).  A snapshot pinned
before a write keeps its answer after it: the pinned version's segments
are still in the caches, shared with the new version's.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core import execute_query, reference_query
from repro.core.translate import explain_query
from repro.sql import execute_sql, parse
from tests.core.test_dml_property import _build, _sql, cell_rows, ids, types

#: ``id > 2`` runs as the scan filter over ``u_r_id`` and ``type <> 'c'``
#: as the probe filter of the join into ``u_r_type``; an UPDATE of
#: ``type`` leaves dead rows on the probed side, a DELETE on both.
QUERIES = (
    "possible (select id, type from r where id > 2 and type <> 'c')",
    "conf (select id, type from r where id > 2 and type <> 'c')",
)

#: An UPDATE of either column: the old row dies in that column's
#: partition and the new one is appended under the same tuple id, so a
#: probe into it meets a dead row whichever side the planner probes.
updates = st.one_of(
    *(
        st.tuples(
            st.just("update"),
            st.just(column),
            st.one_of(values, st.none()),
            st.sampled_from(["=", ">", "<="]),
            ids,
        )
        for column, values in (("id", ids), ("type", types))
    )
)
histories = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), cell_rows.filter(len)),
        updates,
        st.tuples(st.just("delete"), st.sampled_from(["=", ">", "<="]), ids),
        st.tuples(st.just("vacuum")),
    ),
    min_size=1,
    max_size=7,
)


def _statement(op):
    if op[0] == "insert":
        return "insert into r values " + ", ".join(f"({i}, {_sql(t)})" for i, t in op[1])
    if op[0] == "update":
        _, column, value, cmp, k = op
        return f"update r set {column} = {_sql(value)} where id {cmp} {k}"
    if op[0] == "delete":
        return f"delete from r where id {op[1]} {op[2]}"
    return "vacuum"


def _answer(result):
    rows = (tuple(round(v, 9) if isinstance(v, float) else v for v in row) for row in result.rows)
    return sorted(rows, key=repr)


def _shape(udb):
    """``(segments, dead rows)`` of each partition."""
    return [
        (len(part.relation.segments()), part.relation.deleted_count())
        for part in udb.partitions("r")
    ]


def _check(udb, queries):
    for query in queries:
        assert _answer(execute_query(query, udb)) == _answer(reference_query(query, udb)), (
            str(query),
            _shape(udb),
        )


@settings(max_examples=60, deadline=None)
@given(cell_rows, histories)
# one clean segment, then several, then dead rows on both sides, then VACUUM
@example(
    [(3, "a"), (4, "b"), (5, "c")],
    [
        ("insert", [(6, "a"), (1, "b")]),
        ("update", "type", "b", "=", 4),
        ("update", "id", 5, "=", 3),
        ("delete", ">", 5),
        ("vacuum",),
    ],
)
def test_cached_predicates_answer_like_the_reference(initial, ops):
    udb = _build(initial, indexed=True)
    queries = [parse(sql) for sql in QUERIES]
    _check(udb, queries)  # the plans are cached now
    session = udb.session()
    for op in ops:
        with session.snapshot():
            pinned = [_answer(session.execute(sql)) for sql in QUERIES]
            execute_sql(_statement(op), udb)
            assert [_answer(session.execute(sql)) for sql in QUERIES] == pinned, op
        _check(udb, queries)


def test_the_statements_take_both_cached_filters():
    """The plans the property runs hold a cached scan filter and a cached
    probe filter (else it would check nothing of them)."""
    udb = _build([(i % 7, "abc"[i % 3]) for i in range(40)], indexed=True)
    for sql in QUERIES:
        plan = explain_query(parse(sql), udb)
        assert "Fused Pipeline" in plan and "Filter: (id > 2)" in plan, plan
        assert "Probe Filter: (type <> 'c')" in plan, plan
