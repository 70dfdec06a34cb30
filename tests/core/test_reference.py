"""The ``rows()`` reference, as an answer of its own.

:func:`~repro.core.translate.reference_query` is what every executed
answer is compared with, so it shares as little with the executor as it
can: it plans afresh on every call (unfused, no access path), its plan
holds its partitions and world table instead of naming slots, and it
reads and writes neither the plan cache nor the calling thread's
catalog.  It records nothing either: no ``queries_total`` count, no
workload-history entry.

A query shape has one plan: its cache key is ``("uquery", id(udb),
structure)``, and ``PreparedQuery.run`` keeps one other pair of options,
``mode="rows", use_indexes=False``, which runs the reference.
"""

from __future__ import annotations

import pytest

from repro.core import PreparedQuery, reference_query
from repro.core.translate import execute_query, query_cache_key
from repro.obs import metrics_snapshot, workload_size
from repro.relational import plan_cache_stats, reset_plan_cache
from repro.relational.expressions import executing, frame
from repro.sql import execute_sql, parse

from tests.conftest import build_vehicles_udb

QUERIES = {
    "possible": "possible (select id from r where type = 'Tank')",
    "self_join": (
        "possible (select a.id, b.id from r a, r b "
        "where a.id < b.id and a.type = b.type)"
    ),
    "conf": "conf (select type from r)",
    "certain": "certain (select id from r where faction = 'Friend')",
    "urelation": "select id, type from r where faction = 'Enemy'",
}

BY_TYPE = "possible (select id from r where type = $1)"


def _cache_counts():
    stats = plan_cache_stats()
    return stats["hits"], stats["misses"], stats["size"]


def _queries_total():
    return sum(metrics_snapshot()["counters"].get("queries_total", {}).values())


def test_the_reference_leaves_the_plan_cache_and_the_history_alone():
    udb = build_vehicles_udb()
    query = parse(QUERIES["self_join"])
    reset_plan_cache()
    history, counted = workload_size(), _queries_total()
    first = reference_query(query, udb)
    assert reference_query(query, udb) == first
    assert _cache_counts() == (0, 0, 0)
    assert workload_size() == history
    assert _queries_total() == counted
    # the executor, by contrast, plans once and records its execution
    assert execute_query(query, udb) == first
    assert _cache_counts() == (0, 1, 1)
    assert workload_size() == history + 1


def test_the_reference_neither_reads_nor_writes_the_frame_catalog():
    udb, other = build_vehicles_udb(), build_vehicles_udb()
    execute_sql("insert into r values (9, 'Tank', 'Enemy')", other)
    query = parse(QUERIES["possible"])
    held, borrowed = frame.catalog, other.catalog()
    try:
        frame.catalog = borrowed
        answer = reference_query(query, udb)
        assert frame.catalog is borrowed
    finally:
        frame.catalog = held
    assert (9,) not in answer.rows
    assert answer == execute_query(query, udb)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_the_reference_answers_what_the_executor_does(name):
    udb = build_vehicles_udb()
    query = parse(QUERIES[name])
    reference = reference_query(query, udb)
    assert len(reference) > 0
    assert type(reference) is type(execute_query(query, udb))
    for _ in range(2):  # cold, then from the cache
        assert execute_query(query, udb) == reference
    if name == "conf":
        assert reference.conf["groups"] == len(reference.rows)


def test_a_parameterized_statement_agrees_in_and_out_of_a_transaction():
    udb = build_vehicles_udb()
    query = parse(BY_TYPE)
    stmt = PreparedQuery(query, udb)
    for value in ("Tank", "Transport"):
        with executing((value,)):
            reference = reference_query(query, udb)
        assert stmt.run(value) == reference
        assert stmt.run(value, mode="rows", use_indexes=False) == reference
    session = udb.session()
    session.execute("begin")
    session.execute("insert into r values (9, 'Tank', 'Enemy')")
    catalog = session._active_txn.catalog(query)
    with executing(("Tank",)):
        staged = reference_query(query, udb, catalog)
        published = reference_query(query, udb)
    assert (9,) in staged.rows and (9,) not in published.rows
    assert stmt.run("Tank", catalog=catalog) == staged
    assert stmt.run("Tank", mode="rows", use_indexes=False, catalog=catalog) == staged
    session.execute("rollback")


@pytest.mark.parametrize(
    "knobs", [{"mode": "columns", "use_indexes": False}, {"mode": "rows"}]
)
def test_run_takes_the_executor_or_the_reference_and_nothing_else(knobs):
    stmt = PreparedQuery(parse(BY_TYPE), build_vehicles_udb())
    with pytest.raises(ValueError):
        stmt.run("Tank", **knobs)


def test_a_shape_has_one_three_part_key():
    udb = build_vehicles_udb()
    query = parse(BY_TYPE)
    key = query_cache_key(query, udb)
    assert len(key) == 3 and key[:2] == ("uquery", id(udb))
    assert PreparedQuery(query, udb).plan_key() == key
