"""Property-based tests for supporting components: descriptor encodings,
Zipf allocation, CSV round-trips, and expected aggregates vs enumeration."""

import string

from hypothesis import given, settings, strategies as st

from repro.core import Descriptor, UDatabase, URelation, WorldTable
from repro.core.aggregates import expected_count, expected_sum
from repro.core.descriptor import decode_descriptor, encode_descriptor
from repro.core.urelation import tid_column
from repro.relational.csvio import read_csv, write_csv
from repro.relational.relation import Relation
from repro.ugen import dfc_allocation

# ----------------------------------------------------------------------
# descriptor relational encoding round-trips at any width
# ----------------------------------------------------------------------
var_names = st.sampled_from(["x", "y", "z", "u", "v"])


@st.composite
def descriptors(draw):
    chosen = draw(st.lists(var_names, max_size=3, unique=True))
    return Descriptor({v: draw(st.integers(0, 5)) for v in chosen})


@given(descriptors(), st.integers(min_value=3, max_value=8))
@settings(max_examples=200, deadline=None)
def test_descriptor_encoding_roundtrip(descriptor, width):
    assert decode_descriptor(encode_descriptor(descriptor, width)) == descriptor


@given(descriptors(), descriptors())
@settings(max_examples=200, deadline=None)
def test_consistency_is_symmetric(a, b):
    assert a.consistent_with(b) == b.consistent_with(a)


@given(descriptors(), descriptors())
@settings(max_examples=100, deadline=None)
def test_union_extends_both(a, b):
    if a.consistent_with(b):
        u = a.union(b)
        for var in a:
            assert u[var] == a[var]
        for var in b:
            assert u[var] == b[var]


# ----------------------------------------------------------------------
# Zipf allocation covers all fields for any (n, z)
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200, deadline=None)
def test_zipf_allocation_covers_exactly(n, z):
    allocation = dfc_allocation(n, z)
    assert sum(dfc * count for dfc, count in allocation.items()) == n
    assert all(count > 0 for count in allocation.values())
    assert all(dfc >= 1 for dfc in allocation)


# ----------------------------------------------------------------------
# CSV round-trips for arbitrary typed relations
# ----------------------------------------------------------------------
_int_cells = st.one_of(st.none(), st.integers(min_value=-10**6, max_value=10**6))
_str_cells = st.one_of(
    st.none(), st.text(alphabet=string.printable.replace("\r", ""), max_size=20)
)


@given(
    st.integers(min_value=0, max_value=10).flatmap(
        lambda n: st.tuples(
            st.lists(_int_cells, min_size=n, max_size=n),
            st.lists(_str_cells, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_csv_roundtrip(columns):
    """Homogeneously typed columns round-trip exactly (mixed columns too,
    cell by cell — covered in the unit tests)."""
    import pathlib
    import tempfile

    ints, texts = columns
    relation = Relation(["a", "b"], list(zip(ints, texts)))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "r.csv"
        write_csv(relation, path)
        back = read_csv(path)
    assert back.rows == relation.rows


# ----------------------------------------------------------------------
# expected aggregates equal full-world enumeration
# ----------------------------------------------------------------------
@st.composite
def small_results(draw):
    world = WorldTable({"x": [1, 2], "y": [1, 2]})
    n = draw(st.integers(min_value=1, max_value=4))
    triples = []
    for tid in range(n):
        kind = draw(st.sampled_from(["certain", "x", "y", "xy"]))
        value = draw(st.integers(0, 9))
        if kind == "certain":
            triples.append((Descriptor(), tid, (value,)))
        elif kind == "x":
            triples.append((Descriptor(x=draw(st.sampled_from([1, 2]))), tid, (value,)))
        elif kind == "y":
            triples.append((Descriptor(y=draw(st.sampled_from([1, 2]))), tid, (value,)))
        else:
            triples.append(
                (
                    Descriptor(
                        x=draw(st.sampled_from([1, 2])),
                        y=draw(st.sampled_from([1, 2])),
                    ),
                    tid,
                    (value,),
                )
            )
    return URelation.build(triples, tid_column("r"), ["v"]), world


@given(small_results())
@settings(max_examples=100, deadline=None)
def test_expected_aggregates_match_enumeration(setup):
    result, world = setup
    triples = [(d, v) for d, _t, v in result]

    exp_count = 0.0
    exp_sum = 0.0
    for valuation in world.valuations():
        p = world.valuation_probability(valuation)
        present = {v for d, v in triples if d.extended_by(valuation)}
        exp_count += p * len(present)
        exp_sum += p * sum(v[0] for v in present)

    assert abs(expected_count(result, world) - exp_count) < 1e-9
    assert abs(expected_sum(result, "v", world) - exp_sum) < 1e-9
