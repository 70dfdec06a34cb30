"""Tests for the Relation container and its derived operations."""

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Schema, SchemaError


@pytest.fixture
def r():
    return Relation(["a", "b"], [(1, "x"), (2, "y"), (3, "x")])


class TestConstruction:
    def test_from_rows(self, r):
        assert len(r) == 3
        assert r.schema.names == ["a", "b"]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["a"], [(1, 2)])

    def test_from_dicts(self):
        r = Relation.from_dicts(["a", "b"], [{"a": 1, "b": 2}, {"a": 3}])
        assert r.rows == [(1, 2), (3, None)]

    def test_empty(self):
        r = Relation.empty(["a"])
        assert len(r) == 0
        assert not r


class TestDerivedOperations:
    def test_column(self, r):
        assert r.column("b") == ["x", "y", "x"]

    def test_project_keeps_duplicates(self, r):
        p = r.project(["b"])
        assert p.rows == [("x",), ("y",), ("x",)]

    def test_select(self, r):
        s = r.select(lambda row: row[0] > 1)
        assert s.rows == [(2, "y"), (3, "x")]

    def test_distinct_preserves_order(self):
        r = Relation(["a"], [(2,), (1,), (2,), (1,)])
        assert r.distinct().rows == [(2,), (1,)]

    def test_union(self, r):
        u = r.union(Relation(["a", "b"], [(9, "z")]))
        assert len(u) == 4

    def test_union_arity_mismatch(self, r):
        with pytest.raises(SchemaError):
            r.union(Relation(["a"], [(1,)]))

    def test_difference(self, r):
        d = r.difference(Relation(["a", "b"], [(1, "x")]))
        assert d.rows == [(2, "y"), (3, "x")]

    def test_product(self):
        a = Relation(["a"], [(1,), (2,)])
        b = Relation(["b"], [("x",)])
        p = a.product(b)
        assert p.schema.names == ["a", "b"]
        assert p.rows == [(1, "x"), (2, "x")]

    def test_rename(self, r):
        renamed = r.rename({"a": "z"})
        assert renamed.schema.names == ["z", "b"]
        assert renamed.rows == r.rows

    def test_qualify(self, r):
        q = r.qualify("t")
        assert q.schema.names == ["t.a", "t.b"]

    def test_sorted_all_columns(self):
        r = Relation(["a"], [(3,), (1,), (2,)])
        assert r.sorted().rows == [(1,), (2,), (3,)]

    def test_sorted_by_column(self):
        r = Relation(["a", "b"], [(1, "z"), (2, "a")])
        assert r.sorted(["b"]).rows == [(2, "a"), (1, "z")]

    def test_sorted_handles_none(self):
        r = Relation(["a"], [(2,), (None,), (1,)])
        assert r.sorted().rows == [(None,), (1,), (2,)]


class TestEquality:
    def test_bag_equality_order_insensitive(self):
        a = Relation(["a"], [(1,), (2,)])
        b = Relation(["a"], [(2,), (1,)])
        assert a == b

    def test_bag_equality_respects_multiplicity(self):
        a = Relation(["a"], [(1,), (1,)])
        b = Relation(["a"], [(1,)])
        assert a != b

    def test_different_schemas_unequal(self):
        assert Relation(["a"], [(1,)]) != Relation(["b"], [(1,)])

    def test_as_set(self):
        assert Relation(["a"], [(1,), (1,)]).as_set() == frozenset({(1,)})


class TestPretty:
    def test_pretty_contains_header_and_rows(self, r):
        out = r.pretty()
        assert "a" in out and "b" in out and "x" in out

    def test_pretty_truncates(self):
        r = Relation(["a"], [(i,) for i in range(50)])
        out = r.pretty(limit=5)
        assert "50 rows total" in out


class TestSegmentIds:
    def test_a_dropped_segment_id_is_never_taken_again(self):
        """Persistence names segment files by id, so a segment the policy
        dropped must not lend its id to a later one (a save would find
        the old file, with the same row count, and keep it)."""
        base = Relation(["a"], [(i,) for i in range(10)])
        grown = base.with_appended([(10,)])
        (_, appended) = grown.segments()
        emptied = grown.with_deleted([10])
        assert emptied.segments() == base.segments()  # the emptied segment dropped
        again = emptied.with_appended([(11,)])
        (_, fresh) = again.segments()
        assert fresh.segment_id > appended.segment_id
        assert [row for row in again] == [(i,) for i in range(10)] + [(11,)]
