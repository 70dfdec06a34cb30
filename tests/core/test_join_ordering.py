"""The join-ordering pass inside ``translate()``: query in, plan shape out.

``test_optimizer.py`` orders hand-built relational joins; these tests hand
the pass what it serves — translated U-relation queries — one class per
step of the pipeline (break up conjuncts, push each to one unit, introduce
the joins from the flat list), then the facts the benchmark's four
statements must keep on the benchmark's own ``tpch`` fixture, then what
the optimizer's column pruning does with a translated plan.
"""

from __future__ import annotations

import pathlib
import sys
from typing import List, Set

import pytest

from repro.core import (
    Poss,
    Rel,
    UDatabase,
    UJoin,
    UMerge,
    UProject,
    URelation,
    USelect,
    UUnion,
    WorldTable,
    execute_query,
    translate,
)
from repro.core.equivalences import translate_early
from repro.core.translate import _cached_physical, explain_query, query_cache_key
from repro.core.urelation import tid_column
from repro.obs.report import advisory_report
from repro.obs.workload import drift_ratio
from repro.relational import Relation, col, lit
from repro.relational.algebra import (
    Difference,
    Distinct,
    Join,
    Product,
    Project,
    Scan,
    Select,
    Union,
    evaluate,
)
from repro.relational.expressions import TRUE, split_conjuncts
from repro.relational.optimizer import prune_columns
from repro.relational.physical import HashJoin, IndexNestedLoopJoin
from repro.sql import parse
from repro.tpch import queries
from tests.conftest import brute_force_poss

translate_module = sys.modules["repro.core.translate"]  # the package exports the function
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "layers"))
from layer_workloads import FIG12, POINT_SQL, build_dataset  # noqa: E402


# ----------------------------------------------------------------------
# reading a translated plan back
# ----------------------------------------------------------------------
def join_order(plan, selected: str = "") -> List[str]:
    """The leaves of a translated plan in the order they are joined; ``σ``
    marks a leaf that carries a selection."""
    if isinstance(plan, Scan):
        return [selected + plan.name]
    if isinstance(plan, (Join, Product)):
        return join_order(plan.left) + join_order(plan.right)
    (child,) = plan.children
    return join_order(child, "σ " if isinstance(plan, Select) else selected)


def joins(plan) -> List[Join]:
    """The ``Join`` nodes of a plan, innermost (first executed) first."""
    found = [j for child in plan.children for j in joins(child)]
    return found + [plan] if isinstance(plan, Join) else found


def products(plan) -> List[Product]:
    """The ``Product`` nodes of a plan: joins that nothing links."""
    found = [p for child in plan.children for p in products(child)]
    return found + [plan] if isinstance(plan, Product) else found


def selection_on(plan, leaf: str):
    """The predicate of the selection directly over one leaf scan."""
    if isinstance(plan, Select) and join_order(plan) == ["σ " + leaf]:
        return plan.predicate
    for child in plan.children:
        found = selection_on(child, leaf)
        if found is not None:
            return found
    return None


def relation(name: str, attributes: List[str], rows) -> tuple:
    """``add_relation`` arguments: one certain partition per attribute."""
    partitions = [
        URelation.from_certain_rows([(row[i],) for row in rows], tid_column(name), [attribute])
        for i, attribute in enumerate(attributes)
    ]
    return name, attributes, partitions


@pytest.fixture
def udb() -> UDatabase:
    """``big`` (60 rows), ``mid`` (20) and ``few`` (4), each in two partitions."""
    db = UDatabase(WorldTable({"x": [1, 2]}))
    db.add_relation(*relation("big", ["k", "v"], [(i % 20, i % 7) for i in range(60)]))
    db.add_relation(*relation("mid", ["k", "w"], [(i, i % 4) for i in range(20)]))
    db.add_relation(*relation("few", ["w", "z"], [(i, 10 * i) for i in range(4)]))
    return db


def plan_of(query, db):
    return translate(query, db).plan


# ----------------------------------------------------------------------
# rule 1: break up conjuncts
# ----------------------------------------------------------------------
class TestBreakUpConjuncts:
    def test_conjunction_is_split_per_partition(self, udb):
        query = USelect(Rel("big"), col("k").eq(lit(3)) & (col("v") < lit(2)))
        plan = plan_of(query, udb)
        assert repr(selection_on(plan, "u_big_k")) == "(k = 3)"
        assert repr(selection_on(plan, "u_big_v")) == "(v < 2)"

    def test_conjuncts_of_one_partition_share_one_selection(self, udb):
        query = USelect(USelect(Rel("big"), col("v") < lit(5)), col("v") > lit(1))
        plan = plan_of(UProject(query, ["v"]), udb)
        assert join_order(plan) == ["σ u_big_v"]
        assert repr(selection_on(plan, "u_big_v")) == "((v < 5) AND (v > 1))"

    def test_true_is_not_a_conjunct(self, udb):
        """The parser writes a comma-separated FROM list as joins on TRUE."""
        query = UJoin(Rel("mid", "m"), Rel("few", "f"), TRUE)
        for join in joins(plan_of(query, udb)):
            assert "(1 = 1)" not in repr(join.predicate)


# ----------------------------------------------------------------------
# rule 2: push each conjunct to the one unit that holds its columns
# ----------------------------------------------------------------------
class TestPushToOneUnit:
    def test_selection_above_a_join_lands_on_its_partition(self, udb):
        query = USelect(
            UJoin(Rel("big", "b"), Rel("mid", "m"), col("b.k").eq(col("m.k"))),
            col("m.w").eq(lit(1)),
        )
        plan = plan_of(query, udb)
        assert repr(selection_on(plan, "u_mid_w")) == "(m.w = 1)"
        assert all("m.w = 1" not in repr(j.predicate) for j in joins(plan))

    def test_conjunct_over_two_partitions_waits_for_the_second(self, udb):
        either = col("k").eq(lit(3)) | col("v").eq(lit(0))
        plan = plan_of(USelect(Rel("big"), either), udb)
        assert join_order(plan) == ["u_big_k", "u_big_v"]  # nothing pushed
        (merge,) = joins(plan)
        assert "((k = 3) OR (v = 0))" in repr(merge.predicate)

    def test_join_conjunct_sits_where_its_second_side_arrives(self, udb):
        query = UProject(
            UJoin(Rel("big", "b"), Rel("mid", "m"), col("b.k").eq(col("m.k"))),
            ["b.v", "m.w"],
        )
        plan = plan_of(query, udb)
        holders = [j for j in joins(plan) if "(b.k = m.k)" in repr(j.predicate)]
        assert len(holders) == 1
        assert {"u_big_k", "u_mid_k"} <= set(join_order(holders[0]))
        assert not {"u_big_k", "u_mid_k"} <= set(join_order(holders[0].left))

    def test_selection_over_a_projection_stays_above_it(self, udb):
        inner = UProject(Rel("big"), ["v"])
        plan = plan_of(USelect(inner, col("v").eq(lit(2))), udb)
        assert isinstance(plan, Select) and isinstance(plan.child, Project)


# ----------------------------------------------------------------------
# rule 3: introduce the joins from the flat list, smallest estimate first
# ----------------------------------------------------------------------
class TestIntroduceJoins:
    def chain(self, *order: str):
        """big ⋈ mid ⋈ few on k and w, FROM list in the given order."""
        aliases = {"big": Rel("big", "b"), "mid": Rel("mid", "m"), "few": Rel("few", "f")}
        source = aliases[order[0]]
        for name in order[1:]:
            source = UJoin(source, aliases[name], TRUE)
        where = col("b.k").eq(col("m.k")) & col("m.w").eq(col("f.w"))
        return UProject(USelect(source, where), ["b.v", "f.z"])

    def test_smallest_unit_seeds_and_connected_units_follow(self, udb):
        order = join_order(plan_of(self.chain("big", "mid", "few"), udb))
        assert order == ["u_few_w", "u_few_z", "u_mid_w", "u_mid_k", "u_big_k", "u_big_v"]

    def test_a_selection_moves_its_unit_to_the_front(self, udb):
        query = USelect(self.chain("big", "mid", "few").child, col("b.k").eq(lit(6)))
        order = join_order(plan_of(UProject(query, ["b.v", "f.z"]), udb))
        assert order[0] == "σ u_big_k"  # 3 estimated rows against few's 4

    def test_plan_does_not_depend_on_the_from_order(self, udb):
        first = join_order(plan_of(self.chain("big", "mid", "few"), udb))
        for order in (("few", "mid", "big"), ("mid", "few", "big"), ("few", "big", "mid")):
            assert join_order(plan_of(self.chain(*order), udb)) == first

    def test_output_columns_keep_the_text_order(self, udb):
        for order in (("big", "mid", "few"), ("few", "mid", "big")):
            translated = translate(self.chain(*order).child, udb)
            aliases = [name[0] for name in order]
            assert list(translated.tid_names) == [f"tid_{a}" for a in aliases]
            assert [v.split(".")[0] for v in translated.value_names[::2]] == aliases
            names = translated.plan.schema.names
            assert names[-len(translated.value_names) :] == list(translated.value_names)

    def test_cross_product_only_when_nothing_connects(self, udb):
        query = UJoin(
            UJoin(Rel("few", "f"), Rel("big", "b"), TRUE),
            Rel("mid", "m"),
            col("b.k").eq(col("m.k")),
        )
        plan = plan_of(UProject(query, ["f.z", "b.v", "m.w"]), udb)
        # few is the smallest and seeds, big and mid connect to each other
        # only: one product (every partition is certain, so no ψ rides on
        # it), and everything else is a join on a key
        assert all(
            any(" = " in repr(c) and " OR " not in repr(c) for c in split_conjuncts(j.predicate))
            for j in joins(plan)
        )
        assert len(products(plan)) == 1
        answer = set(execute_query(Poss(UProject(query, ["f.z", "b.v", "m.w"])), udb).rows)
        assert answer == brute_force_poss(UProject(query, ["f.z", "b.v", "m.w"]), udb)
        assert len({z for z, _v, _w in answer}) == 4

    def test_shared_aliases_are_still_refused(self, udb):
        three = UJoin(UJoin(Rel("big", "b"), Rel("mid", "m"), TRUE), Rel("big", "b"), TRUE)
        with pytest.raises(ValueError, match="share tuple-id columns"):
            translate(three, udb)
        unaliased = UJoin(UJoin(Rel("big"), Rel("few"), TRUE), Rel("mid"), TRUE)
        with pytest.raises(ValueError, match="share value attributes"):
            translate(unaliased, udb)


# ----------------------------------------------------------------------
# what the pass does not look into
# ----------------------------------------------------------------------
class TestOpaqueUnits:
    def test_projection_is_one_unit(self, udb):
        inner = UProject(
            UJoin(Rel("big", "b"), Rel("mid", "m"), col("b.k").eq(col("m.k"))), ["m.w"]
        )
        query = UJoin(inner, Rel("few", "f"), col("m.w").eq(col("f.w")))
        order = join_order(plan_of(UProject(query, ["f.z"]), udb))
        inside = {"u_big_k", "u_mid_k", "u_mid_w"}
        positions = sorted(order.index(leaf) for leaf in inside)
        assert positions == list(range(positions[0], positions[0] + 3))

    def test_hand_placed_merge_stays_where_it_was_put(self, udb):
        merged = UMerge(UProject(Rel("big"), ["k"]), UProject(Rel("big"), ["v"]))
        plan = plan_of(USelect(merged, col("v").eq(lit(1))), udb)
        assert isinstance(plan, Select)  # above the merge, not on u_big_v
        assert join_order(plan.child) == ["u_big_k", "u_big_v"]

    def test_union_branches_are_ordered_each_on_its_own(self, udb):
        left = UJoin(Rel("big", "b"), Rel("few", "f"), col("b.v").eq(col("f.w")))
        right = UJoin(Rel("mid", "m"), Rel("few", "g"), col("m.w").eq(col("g.w")))
        plan = plan_of(UUnion(left, right), udb)
        first, second = (join_order(branch) for branch in plan.children)
        assert first[0].startswith("u_few") and set(first) >= {"u_big_k", "u_big_v"}
        assert second[0].startswith("u_few") and set(second) >= {"u_mid_k", "u_mid_w"}

    def test_merge_all_reconstructs_each_relation_before_joining(self, udb):
        query = USelect(
            UJoin(Rel("big", "b"), Rel("few", "f"), col("b.v").eq(col("f.w"))),
            col("b.v").eq(lit(1)),
        )
        plan = translate_early(query, udb).plan
        order = join_order(plan)
        assert order in (
            ["u_few_w", "u_few_z", "u_big_k", "u_big_v"],
            ["u_big_k", "u_big_v", "u_few_w", "u_few_z"],
        )
        assert selection_on(plan, "u_big_v") is None  # on the whole relation


# ----------------------------------------------------------------------
# the loop runs where there is something to order, and only there
# ----------------------------------------------------------------------
@pytest.fixture
def greedy_calls(monkeypatch) -> List[int]:
    """Unit counts of the ``greedy_order`` calls the translation makes."""
    calls: List[int] = []
    real = translate_module.greedy_order

    def counting(inputs, size, rank, join):
        calls.append(len(inputs))
        return real(inputs, size, rank, join)

    monkeypatch.setattr(translate_module, "greedy_order", counting)
    return calls


class TestGreedyRuns:
    def test_not_on_a_single_partition(self, udb, greedy_calls):
        translate(UProject(USelect(Rel("big"), col("v").eq(lit(1))), ["v"]), udb)
        assert greedy_calls == []

    def test_once_per_block(self, udb, greedy_calls):
        translate(TestIntroduceJoins().chain("big", "mid", "few"), udb)
        assert greedy_calls == [6]


# ----------------------------------------------------------------------
# the benchmark's statements on the benchmark's fixture
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpch():
    return build_dataset("tpch")[0]


def statements():
    return {**FIG12, "point": POINT_SQL.format(key=7)}


def operators(node: dict) -> List[dict]:
    return [node] + [op for child in node["children"] for op in operators(child)]


def analyzed(sql_or_query, db) -> List[dict]:
    query = parse(sql_or_query) if isinstance(sql_or_query, str) else sql_or_query
    _text, data = explain_query(query, db, analyze=True, trace=True)
    return operators(data["operators"])


class TestBenchmarkPlans:
    def test_greedy_loop_runs_on_every_statement(self, tpch, greedy_calls):
        for sql in statements().values():
            translate(parse(sql).child, tpch)
        assert greedy_calls == [8, 4, 12, 4]

    def test_joins_per_query_are_the_translation_theorem_s(self, tpch):
        counts = [len(joins(translate(parse(sql).child, tpch).plan)) for sql in statements().values()]
        assert counts == [7, 3, 11, 3]

    def test_psi_compares_only_columns_that_can_differ(self, tpch):
        """A certain partition translates with width 0, so ψ pairs only the
        uncertain ones: Q1 reads four (28 conjuncts when every partition
        had a pair), Q3 two (66), the lookup three (6); Q2 reads four
        uncertain partitions and keeps its 6."""
        counts = {
            name: explain_query(parse(sql), tpch).count(" OR (w")
            for name, sql in statements().items()
        }
        assert counts["q1"] <= 6 and counts["q3"] <= 1 and counts["point"] <= 3
        assert counts["q2"] == 6

    def test_every_access_path_is_kept(self, tpch):
        """The renamed-out ⊤ columns do not hide a scan from index selection."""
        paths = {
            name: (text.count("Index Scan"), text.count("Index Nested Loop Join"))
            for name, sql in statements().items()
            for text in [explain_query(parse(sql), tpch)]
        }
        assert paths == {"q1": (8, 7), "q2": (3, 3), "q3": (11, 9), "point": (4, 3)}

    def test_q3_plans_alike_however_it_is_written(self, tpch):
        text = FIG12["q3"]
        from_list = "supplier s, lineitem l, orders o, customer c, nation n1, nation n2"
        assert from_list in text
        turned = text.replace(from_list, ", ".join(reversed(from_list.split(", "))))
        plans = [explain_query(q, tpch) for q in (queries.q3(), parse(text), parse(turned))]
        assert plans[0] == plans[1] == plans[2]
        assert "(1 = 1)" not in plans[1]
        scans = [line for line in plans[1].splitlines() if "Scan" in line]
        assert "u_nation_name" in scans[0]
        assert "n1.name = 'GERMANY'" in plans[1].split(scans[0])[1].splitlines()[1]

    def test_no_q3_join_carries_the_unfiltered_lineitem(self, tpch):
        rows = [op["actual_rows"] for op in analyzed(FIG12["q3"], tpch) if "Join" in op["operator"]]
        assert len(rows) == 11 and max(rows) <= 1000  # 12 133 in text order

    def test_q2_merges_the_unfiltered_partition_last(self, tpch):
        order = join_order(translate(parse(FIG12["q2"]).child, tpch).plan)
        assert order[-1] == "u_lineitem_extendedprice"
        assert all(leaf.startswith("σ ") for leaf in order[:-1])

    def test_q1_filters_orders_by_date_at_its_first_merge(self, tpch):
        order = join_order(translate(parse(FIG12["q1"]).child, tpch).plan)
        merged = [leaf for leaf in order if "u_orders_" in leaf]
        assert merged[1] == "σ u_orders_orderdate"  # behind the partition that joined
        assert order[0] == "σ u_customer_mktsegment"

    def test_estimates_are_within_ten_of_actuals(self, tpch):
        worst = max(
            drift_ratio(op["estimated_rows"], op["actual_rows"])
            for name in ("q1", "q2", "q3")
            for op in analyzed(FIG12[name], tpch)
            if op["actual_rows"] is not None
        )
        assert worst <= 10  # 551 in text order with ψ charged per conjunct

    def test_cost_classes_are_unchanged(self, tpch):
        classes = []
        for sql in statements().values():
            query = parse(sql)
            key = query_cache_key(query, tpch)
            record, _cached = _cached_physical(query, tpch, key)
            classes.append(record.cost_class)
        assert classes == ["heavy", "heavy", "heavy", "point"]

    def test_every_join_output_is_read(self, tpch):
        """Column pruning narrows each join's emitted columns to those its
        ancestors read; Q3's top join used to carry 15 that nobody read."""
        for name, sql in statements().items():
            query = parse(sql)
            key = query_cache_key(query, tpch)
            record, _cached = _cached_physical(query, tpch, key)
            everything = set(range(len(record.physical.schema)))
            assert unread_join_outputs(record.physical, everything) == [], name

    def test_neither_q1_nor_q3_is_reported_as_drifting(self, tpch):
        for name in ("q1", "q3"):
            execute_query(parse(FIG12[name]), tpch)
        assert advisory_report(min_calls=1)["drifting_plans"] == []


def unread_join_outputs(node, read: Set[int]) -> List[str]:
    """``"<join>: <column>"`` for each output column of a join at or under
    ``node`` that no ancestor reads as a key, in a condition or as the
    final output; ``read`` holds the positions of ``node``'s own output
    that its ancestors read."""
    if isinstance(node, HashJoin):
        left, right = node.left, node.right
        keys = [node.left_positions, node.right_positions]
    elif isinstance(node, IndexNestedLoopJoin):
        left, right = node.outer, node.inner
        keys = [node.outer_positions, list(node.index.positions)]
        if node.flipped:
            left, right = right, left
            keys.reverse()
    else:  # not a join: reads every column of its input
        return [
            unread
            for child in node.children
            for unread in unread_join_outputs(child, set(range(len(child.schema))))
        ]
    unread = [f"{node.explain_label()}: {n}" for p, n in enumerate(node.schema.names) if p not in read]
    combined = left.schema.concat(right.schema)
    emitted = node.output_positions if node.output_positions is not None else range(len(combined))
    wanted = {emitted[p] for p in read}
    if node.residual is not None:
        wanted |= {combined.resolve(name) for name in node.residual.columns()}
    split = len(left.schema)
    on_left = {p for p in wanted if p < split} | set(keys[0])
    on_right = {p - split for p in wanted if p >= split} | set(keys[1])
    return unread + unread_join_outputs(left, on_left) + unread_join_outputs(right, on_right)


# ----------------------------------------------------------------------
# column pruning over what the translation emits
# ----------------------------------------------------------------------
def outline(plan) -> str:
    """A plan's operators, each leaf by its scan's name."""
    if isinstance(plan, Scan):
        return plan.name
    return f"{type(plan).__name__}({', '.join(outline(child) for child in plan.children)})"


def scan(name: str, *columns: str) -> Scan:
    return Scan(Relation(list(columns), [tuple(range(len(columns)))]), name)


def narrowed(plan) -> str:
    """:func:`outline` with each Project's columns."""
    if isinstance(plan, Project):
        return f"Project[{', '.join(plan.columns)}]({narrowed(plan.child)})"
    if isinstance(plan, Scan):
        return plan.name
    return f"{type(plan).__name__}({', '.join(narrowed(child) for child in plan.children)})"


class TestPruneColumns:
    def _check(self, plan, required, expected: str) -> None:
        assert outline(prune_columns(plan, set(required))) == expected

    def test_no_project_over_a_partition_scan(self, udb):
        """Every partition here is certain: each scan carries a renamed-out
        ⊤ pair that nothing above reads, and still no Project covers it."""
        query = UProject(
            UJoin(Rel("big", "b"), Rel("mid", "m"), col("b.k").eq(col("m.k"))), ["b.v", "m.w"]
        )
        plan = translate(query, udb).plan
        self._check(
            plan,
            plan.schema.names,
            "Project(Project(Join(Project(Join(Project(Join("
            "Rename(u_mid_k), Rename(Rename(u_mid_w)))), Rename(u_big_k))), "
            "Rename(Rename(u_big_v)))))",
        )
        text = explain_query(Poss(query), udb)
        assert text.count("Index Nested Loop Join") == 3 and "Hash Join" not in text

    def test_no_project_over_a_selected_scan(self):
        a, b = scan("a", "a1", "a2", "a3"), scan("b", "b1", "b2")
        plan = Project(Join(Select(a, col("a3").eq(lit(0))), b, col("a1").eq(col("b1"))), ["b2"])
        self._check(plan, ["b2"], "Project(Join(Select(a), b))")

    def test_a_project_still_narrows_a_join_input(self):
        a, b, c = scan("a", "a1", "a2", "a3"), scan("b", "b1", "b2"), scan("c", "c1")
        inner = Join(a, b, col("a1").eq(col("b1")))
        plan = Project(Join(inner, c, col("b2").eq(col("c1"))), ["a2"])
        self._check(plan, ["a2"], "Project(Join(Project(Join(a, b)), c))")
        assert prune_columns(plan, {"a2"}).children[0].left.schema.names == ["a2", "b2"]

    def test_a_project_still_narrows_a_union_input(self):
        a, b, c = scan("a", "a1", "a2"), scan("b", "b1", "b2"), scan("c", "c1")
        plan = Project(Join(Union(a, b), c, col("a1").eq(col("c1"))), ["c1"])
        self._check(plan, ["c1"], "Project(Join(Project(Union(a, b)), c))")

    def _narrows(self, plan, required, expected: str) -> None:
        assert narrowed(prune_columns(plan, set(required))) == expected

    def test_stacked_projects_narrow_to_what_the_parent_reads(self):
        a = scan("a", "a1", "a2", "a3")
        plan = Project(Project(Project(a, ["a1", "a2", "a3"]), ["a1", "a2"]), ["a1"])
        self._narrows(plan, ["a1"], "Project[a1](Project[a1](Project[a1](a)))")

    def test_a_project_nothing_reads_keeps_its_first_column(self):
        a, b = scan("a", "a1", "a2", "a3"), scan("b", "b1")
        plan = Project(Product(Project(a, ["a2", "a3"]), b), ["b1"])
        self._narrows(plan, ["b1"], "Project[b1](Product(Project[a2](a), b))")

    def test_a_join_reads_its_keys_and_its_output(self):
        a, b, c = scan("a", "a1", "a2", "a3"), scan("b", "b1", "b2"), scan("c", "c1")
        inner = Project(Join(a, b, col("a1").eq(col("b1"))), ["a1", "a2", "a3", "b1", "b2"])
        plan = Project(Join(inner, c, col("b2").eq(col("c1"))), ["a3"])
        self._narrows(plan, ["a3"], "Project[a3](Join(Project[a3, b2](Join(a, b)), c))")

    @pytest.mark.parametrize("node", [Distinct, Union, Difference])
    def test_set_operation_inputs_keep_every_column(self, node):
        a, b = scan("a", "a1", "a2"), scan("b", "b1", "b2")
        inputs = [Project(a, ["a1", "a2"]), Project(b, ["b1", "b2"])]
        children = inputs[:1] if node is Distinct else inputs
        kept = ", ".join(narrowed(child) for child in children)
        self._narrows(
            Project(node(*children), ["a1"]),
            ["a1"],
            f"Project[a1]({node.__name__}({kept}))",
        )

    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "point"])
    def test_pruning_alone_keeps_the_reference_answer(self, tpch, name):
        """Over the value columns alone, as ``possible`` reads the block."""
        translated = translate(parse(statements()[name]).child, tpch)
        plan = Project(translated.plan, list(translated.value_names))
        pruned = prune_columns(plan, set(plan.schema.names))
        assert narrowed(pruned) != narrowed(plan)
        answers = [evaluate(p) for p in (plan, pruned)]
        assert answers[0] == answers[1] and len(answers[0]) > 0
