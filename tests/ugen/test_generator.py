"""Tests for the uncertain TPC-H generator (Section 6 parameters)."""

import gc
import hashlib

import pytest

from repro.core import Poss, URelation, execute_query
from repro.core.reduction import is_reduced
from repro.tpch import q2
from repro.tpch.dbgen import generate
from repro.ugen import KEY_ATTRIBUTES, generate_uncertain


@pytest.fixture(scope="module")
def bundle():
    return generate_uncertain(scale=0.001, x=0.05, z=0.25, seed=9)


class TestStructure:
    def test_all_tables_present(self, bundle):
        assert set(bundle.udb.relation_names()) == set(bundle.certain)

    def test_one_partition_per_attribute(self, bundle):
        for name in bundle.udb.relation_names():
            schema = bundle.udb.logical_schema(name)
            parts = bundle.udb.partitions(name)
            assert len(parts) == len(schema.attributes)
            for part in parts:
                assert len(part.value_names) == 1

    def test_database_is_valid(self, bundle):
        assert bundle.udb.is_valid()

    def test_database_is_reduced(self, bundle):
        # every partition defines every tuple id in every world: reduced
        small = generate_uncertain(
            scale=0.001, x=0.05, z=0.25, seed=9, tables=["nation", "region"]
        )
        assert is_reduced(small.udb)

    def test_keys_stay_certain(self, bundle):
        for name in bundle.udb.relation_names():
            keys = KEY_ATTRIBUTES.get(name, set())
            for part in bundle.udb.partitions(name):
                (attr,) = part.value_names
                if attr in keys:
                    assert all(d.empty for d, _, _ in part)

    def test_normalized_descriptors(self, bundle):
        """The generator produces normal-form databases (Section 4 note)."""
        for name in bundle.udb.relation_names():
            for part in bundle.udb.partitions(name):
                assert part.d_width == 1


class TestParameters:
    def test_zero_uncertainty_is_one_world(self):
        bundle = generate_uncertain(scale=0.001, x=0.0, seed=2, tables=["nation"])
        assert bundle.udb.world_count() == 1
        assert bundle.uncertain_field_count == 0

    def test_uncertainty_ratio_controls_field_count(self):
        lo = generate_uncertain(scale=0.001, x=0.01, seed=2, tables=["customer"])
        hi = generate_uncertain(scale=0.001, x=0.2, seed=2, tables=["customer"])
        assert hi.uncertain_field_count > 3 * lo.uncertain_field_count

    def test_worlds_grow_exponentially_with_x(self):
        lo = generate_uncertain(scale=0.001, x=0.01, seed=2, tables=["customer"])
        hi = generate_uncertain(scale=0.001, x=0.1, seed=2, tables=["customer"])
        assert hi.log10_worlds() > 2 * lo.log10_worlds()

    def test_size_grows_linearly_not_exponentially(self):
        lo = generate_uncertain(scale=0.001, x=0.01, seed=2, tables=["customer"])
        hi = generate_uncertain(scale=0.001, x=0.1, seed=2, tables=["customer"])
        assert hi.representation_rows() < 40 * lo.representation_rows()

    def test_correlation_increases_domains(self):
        lo = generate_uncertain(scale=0.001, x=0.1, z=0.1, seed=2, tables=["orders"])
        hi = generate_uncertain(scale=0.001, x=0.1, z=0.5, seed=2, tables=["orders"])
        assert hi.max_local_worlds() >= lo.max_local_worlds()

    def test_m_bounds_alternatives(self):
        bundle = generate_uncertain(
            scale=0.001, x=0.1, z=0.1, m=3, seed=2, tables=["customer"]
        )
        # DFC-1 variables have at most m domain values
        from repro.ugen.zipf import MAX_DFC

        assert bundle.max_local_worlds() <= 3 ** MAX_DFC

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_uncertain(x=1.5)
        with pytest.raises(ValueError):
            generate_uncertain(x=0.1, z=2.0, tables=["nation"])

    def test_deterministic(self):
        a = generate_uncertain(scale=0.001, x=0.05, seed=4, tables=["nation"])
        b = generate_uncertain(scale=0.001, x=0.05, seed=4, tables=["nation"])
        assert a.log10_worlds() == b.log10_worlds()
        assert a.representation_rows() == b.representation_rows()


class TestWorldSemantics:
    def test_original_world_is_possible(self):
        """Alternative 1 is always the original value, so the certain
        database must be one of the represented worlds."""
        bundle = generate_uncertain(
            scale=0.001, x=0.1, seed=3, tables=["nation", "region"]
        )
        valuation = {v: 1 for v in bundle.udb.world_table.variables()}
        valuation["_t"] = 0
        # domain value 1 maps to combination index 0 which starts with the
        # original field values for every field (combination l=0 cycles 0th)
        instance = bundle.udb.instantiate(valuation, "nation")
        original = set(bundle.certain["nation"].rows)
        assert set(instance.rows) == original

    def test_queries_run_on_uncertain_data(self):
        bundle = generate_uncertain(scale=0.001, x=0.02, seed=5)
        answer = execute_query(q2(), bundle.udb)
        assert len(answer) > 0

    def test_answer_grows_with_uncertainty(self):
        lo = generate_uncertain(scale=0.001, x=0.001, seed=5)
        hi = generate_uncertain(scale=0.001, x=0.1, seed=5)
        lo_ans = len(execute_query(q2(), lo.udb))
        hi_ans = len(execute_query(q2(), hi.udb))
        assert hi_ans > lo_ans


def fixture_digest(bundle):
    """SHA-256 of every partition's (schema names, d_width, rows), in catalog order."""
    digest = hashlib.sha256()
    for name in bundle.udb.relation_names():
        for part in bundle.udb.partitions(name):
            digest.update(
                repr((part.schema.names, part.d_width, list(part.relation.rows))).encode()
            )
    return digest.hexdigest()


class TestPinnedFixture:
    """The generator's output, row for row: any change to an RNG draw, its
    order, a value's type or a row's encoding moves these digests."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return generate_uncertain(scale=0.0005, x=0.1, z=0.25, seed=1)

    def test_uncertain_fixture_digest(self, pinned):
        assert fixture_digest(pinned) == (
            "83b5a4d47308ab1d8be0fb0cdbd80ea1274cccdca7a1cd50c3640f6d67d35703"
        )

    def test_one_world_fixture_digest(self):
        bundle = generate_uncertain(scale=0.0005, x=0.0, z=0.25, seed=1)
        assert fixture_digest(bundle) == (
            "996efe81d10d23fed52cfb1f559329df2dceae31071f8ae0ea47389ee59c1bc9"
        )

    def test_rows_are_the_descriptor_encoding(self, pinned):
        """Decoding each partition and re-encoding it through
        ``URelation.build`` gives back the generated rows, type for type
        (``repr`` tells ``1`` from ``True`` and ``1.0``)."""
        for name in pinned.udb.relation_names():
            for part in pinned.udb.partitions(name):
                rebuilt = URelation.build(
                    ((d, tids[0], values) for d, tids, values in part),
                    part.tid_names[0],
                    part.value_names,
                    d_width=1,
                )
                assert rebuilt.schema.names == part.schema.names
                assert repr(list(rebuilt.relation.rows)) == repr(list(part.relation.rows))


class TestCollectorPause:
    """Generation pauses the cyclic collector and hands back the caller's
    setting, whatever it was and however generation ends."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, enabled):
        (gc.enable if enabled else gc.disable)()
        generate_uncertain(scale=0.0005, x=0.1, seed=2, tables=["nation"])
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_generation_raises(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(KeyError):
            generate_uncertain(scale=0.0005, x=0.1, seed=2, tables=["nope"])
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            generate_uncertain(x=1.5)
        assert gc.isenabled() is enabled

    def test_collector_is_paused_while_generating(self, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return generate(*args, **kwargs)

        monkeypatch.setattr("repro.ugen.generator.generate", spy)
        gc.enable()
        generate_uncertain(scale=0.0005, x=0.1, seed=2, tables=["nation"])
        assert seen == [False]
        assert gc.isenabled()
