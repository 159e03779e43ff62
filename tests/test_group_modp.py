"""Tests for the test-oriented modular group, including generic group laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.group import ModPGroup
from repro.errors import DecodingError

from tests.conftest import TIERS, selected_tier

GROUP = ModPGroup(bits=96)
SCALARS = st.integers(min_value=1, max_value=GROUP.order - 1)


class TestStructure:
    def test_order_matches_safe_prime(self):
        assert GROUP.order == (GROUP.prime - 1) // 2

    def test_generator_in_subgroup(self):
        assert GROUP.is_in_prime_subgroup(GROUP.base())

    def test_deterministic_parameters(self):
        assert ModPGroup(bits=96).prime == GROUP.prime

    def test_element_size_fixed_at_32(self):
        assert GROUP.element_size == 32
        assert len(GROUP.encode(GROUP.base())) == 32


class TestGroupLaws:
    def test_identity(self):
        element = GROUP.base_mult(42)
        assert GROUP.add(element, GROUP.identity()) == element

    def test_negation(self):
        element = GROUP.base_mult(7)
        assert GROUP.add(element, GROUP.neg(element)) == GROUP.identity()

    def test_sub(self):
        assert GROUP.sub(GROUP.base_mult(10), GROUP.base_mult(4)) == GROUP.base_mult(6)

    def test_sum(self):
        assert GROUP.sum(GROUP.base_mult(i) for i in (1, 2, 3)) == GROUP.base_mult(6)

    @given(SCALARS, SCALARS)
    @settings(max_examples=50)
    def test_exponent_addition(self, a, b):
        assert GROUP.add(GROUP.base_mult(a), GROUP.base_mult(b)) == GROUP.base_mult(
            (a + b) % GROUP.order
        )

    @given(SCALARS, SCALARS)
    @settings(max_examples=50)
    def test_dh_agreement(self, a, b):
        assert GROUP.diffie_hellman(GROUP.base_mult(a), b) == GROUP.diffie_hellman(
            GROUP.base_mult(b), a
        )

    @given(SCALARS, SCALARS, SCALARS)
    @settings(max_examples=50)
    def test_blinding_commutes(self, x, bsk1, bsk2):
        point = GROUP.base_mult(x)
        assert GROUP.scalar_mult(GROUP.scalar_mult(point, bsk1), bsk2) == GROUP.scalar_mult(
            GROUP.scalar_mult(point, bsk2), bsk1
        )


class TestFixedBase:
    """One base under many exponents is ``pow`` per exponent on both tiers
    (natively, the comb, as deep as the batch's longest exponent)."""

    @pytest.mark.parametrize("tier", TIERS)
    @given(st.lists(SCALARS | st.sampled_from([0, 1, 2**256 - 1]), max_size=8), SCALARS)
    @settings(max_examples=30, deadline=None)
    def test_fixed_point_mult_batch_is_pow(self, tier, scalars, log):
        base = GROUP.base_mult(log)
        with selected_tier(tier):
            batch = GROUP.fixed_point_mult_batch(base, scalars)
        assert batch == [GROUP.scalar_mult(base, scalar) for scalar in scalars]


class TestEncoding:
    @given(SCALARS)
    @settings(max_examples=50)
    def test_roundtrip(self, scalar):
        element = GROUP.base_mult(scalar)
        assert GROUP.decode(GROUP.encode(element)) == element

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(DecodingError):
            GROUP.decode(b"\x01" * 5)

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(DecodingError):
            GROUP.decode(b"\xff" * 32)

    def test_scalar_roundtrip(self):
        scalar = GROUP.random_scalar()
        assert GROUP.decode_scalar(GROUP.encode_scalar(scalar)) == scalar

    def test_hash_to_scalar_in_range(self):
        value = GROUP.hash_to_scalar(b"transcript")
        assert 0 <= value < GROUP.order
