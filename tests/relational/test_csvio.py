"""Tests for CSV import/export."""

import datetime

import pytest

from repro.relational.csvio import read_csv, write_csv
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType, Date


@pytest.fixture
def relation():
    return Relation(
        ["k", "name", "price", "when", "note"],
        [
            (1, "widget", 9.99, Date("1995-03-15"), "plain"),
            (2, "gadget, deluxe", 0.5, Date("2000-01-01"), None),
            (3, 'quo"ted', 100.0, Date("1992-12-31"), "with 'quotes'"),
        ],
    )


class TestRoundTrip:
    def test_typed_roundtrip(self, relation, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(relation, path)
        back = read_csv(path)
        assert back.schema.names == relation.schema.names
        assert back.rows == relation.rows

    def test_types_preserved(self, relation, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(relation, path)
        back = read_csv(path)
        row = back.rows[0]
        assert isinstance(row[0], int)
        assert isinstance(row[2], float)
        assert isinstance(row[3], datetime.date)

    def test_null_distinct_from_empty_string(self, tmp_path):
        r = Relation(["a"], [(None,), ("",), ("x",)])
        path = tmp_path / "n.csv"
        write_csv(r, path)
        back = read_csv(path)
        assert back.rows == [(None,), ("",), ("x",)]

    def test_commas_and_quotes_survive(self, relation, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(relation, path)
        back = read_csv(path)
        assert back.rows[1][1] == "gadget, deluxe"
        assert back.rows[2][1] == 'quo"ted'

    def test_empty_relation(self, tmp_path):
        r = Relation(["a", "b"], [])
        path = tmp_path / "e.csv"
        write_csv(r, path)
        back = read_csv(path)
        assert back.schema.names == ["a", "b"]
        assert len(back) == 0


class TestPlainHeaders:
    def test_inference_from_data(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("k,price,when,label\n1,9.5,1995-03-15,abc\n2,0.5,2000-01-01,def\n")
        back = read_csv(path)
        assert back.rows[0] == (1, 9.5, datetime.date(1995, 3, 15), "abc")

    def test_explicit_schema_wins(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1,2\n")
        schema = Schema([Attribute("a", DataType.STR), Attribute("b", DataType.INT)])
        back = read_csv(path, schema=schema)
        assert back.rows == [("1", 2)]

    def test_header_schema_arity_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="columns"):
            read_csv(path, schema=Schema(["only"]))


class TestErrors:
    def test_mixed_type_column_roundtrips_cell_by_cell(self, tmp_path):
        r = Relation(["a", "b"], [(1, 1), ("text", 2), (None, 3), ("x:y", 4), (True, 5)])
        path = tmp_path / "mixed.csv"
        write_csv(r, path)
        assert path.read_text().splitlines()[:3] == ["a:any,b:int", "int:1,1", "str:text,2"]
        assert read_csv(path).rows == r.rows
        # a schema that leaves the column ANY still reads each cell's tag
        assert read_csv(path, schema=r.schema).rows == r.rows
        schema = Schema([Attribute("a", DataType.ANY), Attribute("b", DataType.STR)])
        assert read_csv(path, schema=schema).rows[:2] == [(1, "1"), ("text", "2")]

    def test_untyped_value_rejected(self, tmp_path):
        r = Relation(["a"], [((1, 2),), ("text",)])
        with pytest.raises(ValueError, match="cannot type"):
            write_csv(r, tmp_path / "tuple.csv")

    def test_int_float_mix_promotes(self, tmp_path):
        r = Relation(["a"], [(1,), (2.5,)])
        path = tmp_path / "nums.csv"
        write_csv(r, path)
        back = read_csv(path)
        assert back.rows == [(1.0,), (2.5,)]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a:int,b:int\n1,2\n3\n")
        with pytest.raises(ValueError, match="arity"):
            read_csv(path)
