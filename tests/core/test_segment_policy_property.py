"""Property: after every write, each partition version meets the segment policy.

Every write applies the segment policy to the versions it makes, and
``VACUUM`` applies it to every partition.  Hypothesis draws histories of
batched INSERTs (so size tiers form), range DELETEs and UPDATEs and
``VACUUM``, and runs each history as drawn and with every ``VACUUM`` left
out.  After every statement each partition version:

* holds at most ``(T - 1) * ceil(log_T n) + 1`` segments for ``n`` live rows;
* has no segment at or above ``DEAD_SHARE`` dead, and none emptied;
* answers like ``reference_query``, and like the model.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import execute_query, reference_query
from repro.core.query import Poss, Rel, UProject
from repro.sql import execute_sql
from tests.conftest import assert_tiered
from tests.core.test_dml_property import _build

KINDS = ["a", "b", "c"]
QUERY = Poss(UProject(Rel("r"), ["id", "type"]))

spans = st.tuples(st.integers(0, 120), st.integers(1, 30))
ops = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 40), st.sampled_from(KINDS)),
    st.tuples(st.just("insert"), st.just(1), st.sampled_from(KINDS)),
    st.tuples(st.just("delete"), spans),
    st.tuples(st.just("update"), spans, st.sampled_from(KINDS)),
    st.tuples(st.just("vacuum")),
)
histories = st.tuples(st.integers(0, 60), st.lists(ops, min_size=1, max_size=25))


def _run(udb, model, op):
    if op[0] == "insert":
        _, count, kind = op
        start = max(model, default=-1) + 1
        values = ", ".join(f"({i}, '{kind}')" for i in range(start, start + count))
        execute_sql(f"insert into r values {values}", udb)
        model.update((i, kind) for i in range(start, start + count))
        return
    if op[0] == "vacuum":
        execute_sql("vacuum r", udb)
        return
    low, width = op[1]
    where = f"where id >= {low} and id < {low + width}"
    hit = [i for i in model if low <= i < low + width]
    if op[0] == "delete":
        assert execute_sql(f"delete from r {where}", udb).count == len(hit)
        for i in hit:
            del model[i]
    else:
        assert execute_sql(f"update r set type = '{op[2]}' {where}", udb).count == len(hit)
        model.update((i, op[2]) for i in hit)


@pytest.mark.parametrize("vacuum", [True, False], ids=["with-vacuum", "without-vacuum"])
@settings(max_examples=30, deadline=None)
@given(history=histories)
def test_every_write_leaves_every_partition_within_the_policy(vacuum, history):
    initial, steps = history
    model = {i: KINDS[i % 3] for i in range(initial)}
    udb = _build(sorted(model.items()), indexed=True)
    for op in steps:
        if op[0] == "vacuum" and not vacuum:
            continue
        _run(udb, model, op)
        for part in udb.partitions("r"):
            assert_tiered(part.relation)
        expected = set(model.items())
        assert set(execute_query(QUERY, udb).rows) == expected, op
        assert set(reference_query(QUERY, udb).rows) == expected, op
