"""Property-based tests for the central theorems.

* Theorem 3.5 / Figure 4: for random U-relational databases and random
  positive queries, ``poss`` via translation == union of per-world answers.
* Lemma 4.3: certain answers == intersection of per-world answers.
* Section 7: exact ``conf`` == sum of the probabilities of the worlds a
  tuple occurs in.
* Theorem 4.2: normalization preserves the world-set.
* Prop. 3.3: reduction preserves the world-set.

The databases hold two or three relations of two or three vertical
partitions each, a partition either certain (every descriptor ⊤) or
uncertain.  The queries have at least three leaves and are written the
way the join ordering has to undo — unselective tables first, the
selection on the last one: chains of equi-joins (a self-join under
aliases among them), a FROM list nothing connects, a union of two join
blocks with no projection above them (its branches zip by position), a
join block under a projection inside another block.  Wherever the grammar
can say it the query is SQL text run through ``execute_sql``, so lex,
parse, literal lifting and the by-shape statement map are inside the
loop; every query runs three times with the literals k, k', k — on one
plan when the literal is lifted — and once more with the ordering loop
replaced by one that keeps the text's order, which must not change an
answer.

A certain partition translates without a descriptor pair (the "slot is
all-⊤" fact on its relation version), so one prepared statement is also
run across writes that flip that fact - an uncertain INSERT, its DELETE,
VACUUM, the INSERT again inside a transaction - checking the answer and
the planned ψ after each; and the block boundaries where a width-0 side
meets a wider one (a union, ``select *``, ``conf``) have explicit cases.
"""

from __future__ import annotations

import functools
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Tuple, Union
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    Certain,
    Conf,
    Descriptor,
    Poss,
    PreparedQuery,
    Rel,
    UDatabase,
    UJoin,
    UProject,
    UQuery,
    URelation,
    USelect,
    UUnion,
    WorldTable,
    execute_query,
    normalize_udatabase,
    reduce_udatabase,
)
from repro.core.descriptor import TOP_VARIABLE
from repro.core.urelation import tid_column
from repro.relational import col, lit, reset_plan_cache
from repro.relational.algebra import Scan
from repro.relational.expressions import Expression, Param
from repro.sql import execute_sql, parse, prepare
from tests.conftest import brute_force_certain, brute_force_conf, brute_force_poss

translate_module = sys.modules["repro.core.translate"]  # the package exports the function

# -- databases ----------------------------------------------------------
VARIABLES = {"x": (0.3, 0.7), "y": (0.5, 0.5), "z": (0.2, 0.8)}
small_values = st.integers(min_value=0, max_value=3)


@st.composite
def field_triples(draw, tid: int, certain: bool):
    """Triples defining ONE tuple field so it has a value in *every* world.

    The paper assumes reduced input databases whose tuples are complete in
    every world their descriptors cover (its generator — and ours in
    :mod:`repro.ugen` — only produces such "total" fields: a field is either
    certain or takes one value per domain value of its variable(s)).  The
    single-partition projection shortcut of Section 3 relies on this.
    """
    kind = "certain" if certain else draw(st.sampled_from(["certain", "one_var", "two_var"]))
    if kind == "certain":
        return [(Descriptor(), tid, (draw(small_values),))]
    if kind == "one_var":
        var = draw(st.sampled_from(sorted(VARIABLES)))
        return [
            (Descriptor({var: value}), tid, (draw(small_values),))
            for value in (1, 2)
        ]
    v1, v2 = draw(
        st.lists(st.sampled_from(sorted(VARIABLES)), min_size=2, max_size=2, unique=True)
    )
    return [
        (Descriptor({v1: a, v2: b}), tid, (draw(small_values),))
        for a in (1, 2)
        for b in (1, 2)
    ]


@st.composite
def udatabases(draw):
    """Two or three relations (``r``, ``s``, ``t``) of two or three one-
    attribute partitions (``a``, ``b``, ``c``) and one to three tuples,
    over a 3-variable, 8-world table with uneven probabilities."""
    world = WorldTable({v: [1, 2] for v in VARIABLES}, VARIABLES)
    udb = UDatabase(world)
    for name in "rst"[: draw(st.integers(min_value=2, max_value=3))]:
        attributes = list("abc"[: draw(st.integers(min_value=2, max_value=3))])
        tids = range(1, draw(st.integers(min_value=1, max_value=3)) + 1)
        partitions = []
        for attribute in attributes:
            certain = draw(st.booleans())  # an all-⊤ partition, or not
            triples = [t for tid in tids for t in draw(field_triples(tid, certain))]
            partitions.append(URelation.build(triples, tid_column(name), [attribute]))
        udb.add_relation(name, attributes, partitions)
    return udb


# -- queries ------------------------------------------------------------
class Case(NamedTuple):
    """A drawn query: ``build(k)`` is its SQL text (the bare ``select``) or,
    where the grammar has no way to say it, ``build(operand)`` its tree."""

    build: Callable[[Any], Union[str, UQuery]]
    keys: Tuple[int, int, int]
    as_tree: bool


def _selection(kind: str, table: str, first: str, second: str) -> str:
    """A selection on one table, ``{}`` where the rebinding literal goes."""
    return {
        "eq": f"{table}.{first} = {{}}",
        "lt": f"{table}.{first} < {{}}",
        "between": f"{table}.{first} between {{}} and 2",
        "in": f"{table}.{first} in ({{}}, 0)",
        "or": f"({table}.{first} = {{}} or {table}.{second} = 1)",
    }[kind]


@st.composite
def cases(draw, udb: UDatabase) -> Case:
    names = sorted(udb.relation_names())
    attributes = {name: list(udb.logical_schema(name).attributes) for name in names}

    def column(table: int) -> str:
        return f"t{table}.{draw(st.sampled_from(attributes[tables[table - 1]]))}"

    first, other = draw(st.sampled_from([(1, 2), (2, 3), (0, 3), (3, 1)]))
    keys = (first, other, first)
    shape = draw(st.sampled_from(["chain", "self_join", "cross", "union", "nested"]))
    kind = draw(st.sampled_from(["eq", "lt", "between", "in", "or"]))
    tables = [draw(st.sampled_from(names)) for _ in range(3)]
    if shape == "self_join":
        tables[1] = tables[0]
    from_list = ", ".join(f"{name} t{i}" for i, name in enumerate(tables, start=1))
    links = [(column(1), column(2)), (column(2), column(3))]
    where = [f"{a} = {b}" for a, b in links]
    selected = draw(st.permutations(attributes[tables[2]]))
    selection = _selection(kind, "t3", selected[0], selected[1])
    everything = [f"t{i}.{a}" for i, name in enumerate(tables, start=1) for a in attributes[name]]
    targets = draw(
        st.one_of(
            st.just("*"),
            st.lists(st.sampled_from(everything), min_size=1, max_size=3, unique=True).map(
                ", ".join
            ),
        )
    )
    if shape in ("chain", "self_join"):
        sql = f"select {targets} from {from_list} where {' and '.join(where + [selection])}"
        return Case(sql.format, keys, False)
    if shape == "cross":  # nothing connects the three
        return Case(f"select {targets} from {from_list} where {selection}".format, keys, False)
    if shape == "union":  # two join blocks, no projection above either
        pair = f"{tables[0]} t1, {tables[1]} t2"
        on_second = draw(st.permutations(attributes[tables[1]]))
        sql = (
            f"select * from {pair} where {where[0]} "
            f"union select * from {pair} where {column(1)} = {column(2)} "
            f"and {_selection(kind, 't2', on_second[0], on_second[1])}"
        )
        return Case(sql.format, keys, False)
    # a join block under a projection, joined on: SQL has no subquery for it
    (inner_left, inner_right), (kept, outer_right) = links
    compare = Expression.__lt__ if kind in ("lt", "between") else Expression.eq

    def tree(operand: Expression) -> UQuery:
        inner = UProject(
            UJoin(Rel(tables[0], "t1"), Rel(tables[1], "t2"), col(inner_left).eq(col(inner_right))),
            list(dict.fromkeys([inner_left, kept])),
        )
        joined = UJoin(inner, Rel(tables[2], "t3"), col(kept).eq(col(outer_right)))
        return USelect(joined, compare(col(f"t3.{selected[0]}"), operand))

    return Case(tree, keys, True)


@st.composite
def databases_and_cases(draw):
    udb = draw(udatabases())
    return udb, draw(cases(udb))


# -- running a case -----------------------------------------------------
WRAPPERS: Dict[str, Tuple[str, Callable[[UQuery], UQuery], Callable]] = {
    "possible": ("possible ({})", Poss, brute_force_poss),
    "certain": ("certain ({})", Certain, brute_force_certain),
    "conf": (
        "conf ({}) method exact",
        lambda query: Conf(query, method="exact"),
        brute_force_conf,
    ),
}


def answer_of(relation, wrapper: str):
    """A comparable form of an answer: a set of rows, or ``{row: conf}``."""
    if wrapper == "conf":
        return {row[:-1]: pytest.approx(row[-1]) for row in relation.rows}
    return set(relation.rows)


def scans_of(plan) -> List[Scan]:
    return ([plan] if isinstance(plan, Scan) else []) + [
        scan for child in plan.children for scan in scans_of(child)
    ]


def text_order(inputs, size, rank, join):
    """``greedy_order`` with nothing to decide: the text's order, kept."""
    return functools.reduce(join, inputs)


def check(udb: UDatabase, case: Case, wrapper: str) -> None:
    text, wrap, oracle = WRAPPERS[wrapper]
    if case.as_tree:
        statement = PreparedQuery(wrap(case.build(Param(0))), udb)
        run = statement.run
        logical = lambda key: case.build(lit(key))  # noqa: E731
    else:
        run = lambda key: execute_sql(text.format(case.build(key)), udb)  # noqa: E731
        logical = lambda key: parse(case.build(key))  # noqa: E731

    # the loop runs wherever a block has something to order
    calls: List[int] = []
    real = translate_module.greedy_order

    def counting(inputs, size, rank, join):
        calls.append(len(inputs))
        return real(inputs, size, rank, join)

    with mock.patch.object(translate_module, "greedy_order", counting):
        leaves = len(scans_of(translate_module.translate(logical(case.keys[0]), udb).plan))
    assert leaves >= 3 and calls and sum(calls) >= leaves

    expected = {key: oracle(logical(key), udb) for key in set(case.keys)}
    for key in case.keys:  # k, k', k: the third run re-reads the first's plan
        assert answer_of(run(key), wrapper) == expected[key]

    reset_plan_cache()
    try:
        with mock.patch.object(translate_module, "greedy_order", text_order):
            in_text_order = execute_query(wrap(logical(case.keys[0])), udb)
    finally:
        reset_plan_cache()
    assert answer_of(in_text_order, wrapper) == expected[case.keys[0]]


# -- properties ---------------------------------------------------------
@given(databases_and_cases())
@settings(max_examples=100, deadline=None)
def test_poss_matches_brute_force(drawn):
    check(*drawn, "possible")


@given(databases_and_cases())
@settings(max_examples=40, deadline=None)
def test_certain_matches_brute_force(drawn):
    check(*drawn, "certain")


@given(databases_and_cases())
@settings(max_examples=40, deadline=None)
def test_exact_conf_matches_world_probabilities(drawn):
    check(*drawn, "conf")


def _world_set(udb: UDatabase):
    return {
        frozenset((name, frozenset(instance.rows)) for name, instance in instances.items())
        for _valuation, instances in udb.worlds()
    }


@given(udatabases())
@settings(max_examples=40, deadline=None)
def test_normalization_preserves_world_set(udb: UDatabase):
    assert _world_set(normalize_udatabase(udb)) == _world_set(udb)


@given(udatabases())
@settings(max_examples=40, deadline=None)
def test_reduction_preserves_world_set(udb: UDatabase):
    assert _world_set(reduce_udatabase(udb)) == _world_set(udb)


@given(databases_and_cases())
@settings(max_examples=30, deadline=None)
def test_optimizer_does_not_change_answers(drawn):
    udb, case = drawn
    query = case.build(lit(case.keys[0])) if case.as_tree else parse(case.build(case.keys[0]))
    optimized = set(execute_query(Poss(query), udb, optimize=True).rows)
    raw = set(execute_query(Poss(query), udb, optimize=False).rows)
    assert optimized == raw


@given(udatabases())
@settings(max_examples=30, deadline=None)
def test_generated_databases_are_valid(udb: UDatabase):
    assert udb.is_valid()


# -- the all-⊤ fact flipping under one prepared statement ---------------
def all_top(part) -> bool:
    """The fact the translation reads: descriptor slot 1 is ⊤ in every row
    (in this strategy's encoding, every descriptor is then empty)."""
    return part.relation.column_all_equal(0, TOP_VARIABLE)


def has_union(query: UQuery) -> bool:
    return isinstance(query, UUnion) or any(has_union(child) for child in query.children)


def psi_conjuncts(statement) -> int:
    return statement.explain().count(" OR (w")


@given(databases_and_cases(), st.data())
@settings(max_examples=30, deadline=None)
def test_a_flip_under_one_prepared_statement(drawn, data):
    """One statement, one cache key, a history of writes that turns a
    certain partition the query scans uncertain and back: ``INSERT …
    {7, v}``, ``DELETE`` of that row, ``VACUUM``, and the same ``INSERT``
    staged in a transaction.  After every step the answer is the per-world
    one, and the planned ψ follows the fact."""
    udb, case = drawn
    wrapper = data.draw(st.sampled_from(sorted(WRAPPERS)))
    text, wrap, oracle = WRAPPERS[wrapper]
    key = case.keys[0]
    if case.as_tree:
        statement, params = PreparedQuery(wrap(case.build(Param(0))), udb), (key,)
        logical = case.build(lit(key))
    else:
        statement, params = prepare(text.format(case.build(key)), udb), ()
        logical = parse(case.build(key))
    plan = translate_module.translate(logical, udb).plan
    scanned = {id(scan.relation) for scan in scans_of(plan)}
    certain = [
        (name, part.value_names[0])
        for name in udb.relation_names()
        for part in udb.partitions(name)
        if id(part.relation) in scanned and all_top(part)
    ]
    assume(certain)
    name, attribute = data.draw(st.sampled_from(certain))
    cells = [
        f"{{7, {data.draw(small_values)}}}" if a == attribute else str(data.draw(small_values))
        for a in udb.logical_schema(name).attributes
    ]
    insert = f"insert into {name} values ({', '.join(cells)})"
    # in a union ψ spans one branch, whose width may not be the larger one
    grows = not has_union(logical)

    def flipped() -> bool:
        (part,) = [p for p in udb.partitions(name) if p.value_names == (attribute,)]
        return not all_top(part)

    def step(expect_flipped: bool) -> Tuple[int, int]:
        assert answer_of(statement.run(*params), wrapper) == oracle(logical, udb)
        assert flipped() == expect_flipped
        return psi_conjuncts(statement), translate_module.translate(logical, udb).d_width

    psi, width = step(False)
    execute_sql(insert, udb)
    psi_flipped, width_flipped = step(True)
    assert psi_flipped >= psi and (width_flipped > width if grows else width_flipped >= width)
    execute_sql(f"delete from {name} where {attribute} = 7", udb)
    step(False)  # correct whichever width was planned; the fact is recomputed
    execute_sql(f"vacuum {name}", udb)
    assert step(False) == (psi, width)
    execute_sql("begin", udb)
    execute_sql(insert, udb)
    assert step(False) == (psi, width)  # a read in the transaction sees the committed state
    execute_sql("commit", udb)
    assert step(True) == (psi_flipped, width_flipped)


# -- certain partitions at the block boundaries --------------------------
@pytest.fixture
def boundary_udb() -> UDatabase:
    """``r(a, b)`` certain, ``s(a)`` uncertain with descriptors of two
    pairs, ``c(v)`` one certain partition."""
    udb = UDatabase(WorldTable({"x": [1, 2], "y": [1, 2]}, {"x": (0.3, 0.7), "y": (0.5, 0.5)}))

    def certain(tid_name: str, attribute: str, values) -> URelation:
        triples = [(Descriptor(), tid, (v,)) for tid, v in enumerate(values, start=1)]
        return URelation.build(triples, tid_name, [attribute])

    udb.add_relation(
        "r", ["a", "b"], [certain("tid_r", "a", [1, 2, 3]), certain("tid_r", "b", [10, 20, 30])]
    )
    uncertain = [
        (Descriptor({"x": 1}), 1, (1,)),
        (Descriptor({"x": 2}), 1, (2,)),
    ] + [(Descriptor({"x": x, "y": y}), 2, (3 if x == 1 else 1,)) for x in (1, 2) for y in (1, 2)]
    udb.add_relation("s", ["a"], [URelation.build(uncertain, "tid_s", ["a"])])
    udb.add_relation("c", ["v"], [certain("tid_c", "v", [5, 6])])
    return udb


def check_wrappers(udb: UDatabase, sql: str) -> None:
    for wrapper, (text, _wrap, oracle) in WRAPPERS.items():
        answer = execute_sql(text.format(sql), udb)
        assert answer_of(answer, wrapper) == oracle(parse(sql), udb), wrapper


class TestCertainPartitionBoundaries:
    def test_psi_comes_back_when_a_certain_partition_turns_uncertain(self, boundary_udb):
        sql = "select t.a, u.a from r t, s u where t.a = u.a"
        statement = prepare(f"possible ({sql})", boundary_udb)
        assert psi_conjuncts(statement) == 0  # r.a is certain, s.a alone has pairs
        check_wrappers(boundary_udb, sql)
        execute_sql("insert into r values ({1, 2}, 40)", boundary_udb)
        assert psi_conjuncts(statement) == 2  # r.a's one pair against s.a's two
        check_wrappers(boundary_udb, sql)

    def test_union_of_a_certain_block_and_an_uncertain_one(self, boundary_udb):
        sql = "select a from r union select a from s"
        check_wrappers(boundary_udb, sql)
        answer = execute_sql(sql, boundary_udb)
        assert answer.d_width == 2  # the certain branch pumped a literal ⊤ pair
        tid_s = answer.relation.schema.resolve("tid_s")
        from_r = [row for row in answer.relation.rows if row[tid_s] is None]
        assert len(from_r) == 3 and {row[:4] for row in from_r} == {(TOP_VARIABLE, 0) * 2}
        check_wrappers(boundary_udb, "select a from r union select v from c")

    def test_select_star_of_one_certain_partition(self, boundary_udb):
        for sql in ("select * from c", "select * from r"):
            answer = execute_sql(sql, boundary_udb)
            assert isinstance(answer, URelation) and answer.d_width == 1
            assert {row[:2] for row in answer.relation.rows} == {(TOP_VARIABLE, 0)}
            assert all(descriptor.empty for descriptor in answer.descriptors())
        assert sorted(execute_sql("select * from c", boundary_udb).relation.rows) == [
            (TOP_VARIABLE, 0, 1, 5),
            (TOP_VARIABLE, 0, 2, 6),
        ]

    def test_conf_of_an_all_certain_query_is_one_per_group(self, boundary_udb):
        sql = "select t.b, u.v from r t, c u where t.a < 3"
        answer = execute_sql(f"conf ({sql}) method exact", boundary_udb)
        assert sorted(answer.rows) == [(b, v, 1.0) for b in (10, 20) for v in (5, 6)]
        check_wrappers(boundary_udb, sql)
