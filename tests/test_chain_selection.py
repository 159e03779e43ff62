"""Tests for the chain-selection algorithm (§5.3.1) and its invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import chain_selection as cs
from repro.errors import ChainSelectionError


class TestEll:
    def test_small_values(self):
        assert cs.ell_for_chains(1) == 1
        assert cs.ell_for_chains(3) == 2
        assert cs.ell_for_chains(6) == 3
        assert cs.ell_for_chains(100) == 14

    def test_minimal_ell(self):
        """ℓ is the smallest value with ℓ(ℓ+1)/2 ≥ n."""
        for n in range(1, 300):
            ell = cs.ell_for_chains(n)
            assert ell * (ell + 1) // 2 >= n
            if ell > 1:
                assert (ell - 1) * ell // 2 < n

    def test_sqrt2_approximation(self):
        """ℓ ≈ √(2n): within the √2 factor of the √n lower bound (§4.2, §9)."""
        for n in (10, 100, 1000, 5000):
            ell = cs.ell_for_chains(n)
            assert ell >= math.isqrt(n)
            assert ell <= math.ceil(math.sqrt(2 * n)) + 1

    def test_invalid(self):
        with pytest.raises(ChainSelectionError):
            cs.ell_for_chains(0)
        with pytest.raises(ChainSelectionError):
            cs.num_logical_chains(0)

    @given(st.integers(min_value=1, max_value=20000))
    @settings(max_examples=100)
    def test_minimality_property(self, n):
        ell = cs.ell_for_chains(n)
        assert ell * (ell + 1) // 2 >= n
        assert ell == 1 or (ell - 1) * ell // 2 < n


class TestGroupConstruction:
    def test_paper_example_ell_3(self):
        """The ℓ = 3 construction worked out by hand from §5.3.1."""
        sets = cs.build_group_chain_sets(3)
        assert list(sets[0]) == [1, 2, 3]
        assert list(sets[1]) == [1, 4, 5]
        assert list(sets[2]) == [2, 4, 6]
        assert list(sets[3]) == [3, 5, 6]

    def test_number_of_groups_and_sizes(self):
        for ell in range(1, 12):
            sets = cs.build_group_chain_sets(ell)
            assert len(sets) == ell + 1
            assert all(len(chain_set) == ell for chain_set in sets)

    def test_largest_chain_index(self):
        for ell in range(1, 12):
            sets = cs.build_group_chain_sets(ell)
            assert max(max(chain_set) for chain_set in sets) == cs.num_logical_chains(ell)

    def test_all_pairs_intersect_small(self):
        for ell in range(1, 15):
            assert cs.all_pairs_intersect(ell)

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=40)
    def test_all_pairs_intersect_property(self, ell):
        """The core correctness invariant: every pair of groups shares a chain."""
        assert cs.all_pairs_intersect(ell)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=30)
    def test_every_logical_chain_serves_some_group(self, ell):
        sets = cs.build_group_chain_sets(ell)
        used = set()
        for chain_set in sets:
            used.update(chain_set)
        assert used == set(range(1, cs.num_logical_chains(ell) + 1))

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=30)
    def test_chain_load_balanced(self, ell):
        """Every logical chain is shared by exactly two groups (or one group twice)."""
        sets = cs.build_group_chain_sets(ell)
        counts = {}
        for chain_set in sets:
            for chain in chain_set:
                counts[chain] = counts.get(chain, 0) + 1
        assert max(counts.values()) == 2
        assert min(counts.values()) >= 1


class TestAssignment:
    def test_group_assignment_in_range(self):
        for index in range(50):
            key = bytes([index]) * 32
            assert 0 <= cs.assign_group(key, 7) < 7

    def test_group_assignment_deterministic(self):
        key = b"\x01" * 32
        assert cs.assign_group(key, 10) == cs.assign_group(key, 10)

    def test_group_assignment_roughly_uniform(self):
        keys = [bytes([i % 256, i // 256]) + b"\x00" * 30 for i in range(2000)]
        sizes = cs.group_sizes(keys, 100)  # ℓ(100)=14 → 15 groups
        assert len(sizes) == 15
        expected = 2000 / 15
        assert max(sizes) < 2 * expected
        assert min(sizes) > expected / 2

    def test_invalid_group_count(self):
        with pytest.raises(ChainSelectionError):
            cs.assign_group(b"\x00" * 32, 0)

    def test_chains_for_group_range(self):
        for group_index in range(cs.ell_for_chains(10) + 1):
            chains = cs.chains_for_group(group_index, 10)
            assert len(chains) == cs.ell_for_chains(10)
            assert all(0 <= chain < 10 for chain in chains)

    def test_chains_for_group_out_of_range(self):
        with pytest.raises(ChainSelectionError):
            cs.chains_for_group(99, 10)

    def test_chains_for_user_count(self):
        chains = cs.chains_for_user(b"\x07" * 32, 100)
        assert len(chains) == cs.ell_for_chains(100)


class TestIntersection:
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=100)
    def test_every_pair_of_users_intersects(self, key_a, key_b, num_chains):
        """Any two users share the chain returned by intersection_chain."""
        chain = cs.intersection_chain(key_a, key_b, num_chains)
        assert chain in cs.chains_for_user(key_a, num_chains)
        assert chain in cs.chains_for_user(key_b, num_chains)

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=50)
    def test_intersection_symmetric(self, key_a, key_b, num_chains):
        """Both partners independently compute the same chain (the §5.3.2 tie-break)."""
        assert cs.intersection_chain(key_a, key_b, num_chains) == cs.intersection_chain(
            key_b, key_a, num_chains
        )

    def test_same_group_users_intersect(self):
        key = b"\x01" * 32
        assert cs.intersection_chain(key, key, 50) in cs.chains_for_user(key, 50)

    def test_logical_intersection_is_smallest(self):
        key_a, key_b = b"\x01" * 32, b"\x02" * 32
        ell = cs.ell_for_chains(30)
        sets = cs.build_group_chain_sets(ell)
        group_a = cs.assign_group(key_a, ell + 1)
        group_b = cs.assign_group(key_b, ell + 1)
        expected = min(set(sets[group_a]) & set(sets[group_b]))
        assert cs.intersection_logical_chain(key_a, key_b, 30) == expected


class TestLoad:
    def test_expected_chain_load_formula(self):
        assert cs.expected_chain_load(1000, 100) == pytest.approx(1000 * 14 / 100)

    def test_expected_chain_load_scaling(self):
        """Load per chain scales as ~√2·M/√n (§4.2)."""
        load_100 = cs.expected_chain_load(10_000, 100)
        load_400 = cs.expected_chain_load(10_000, 400)
        assert load_100 / load_400 == pytest.approx(math.sqrt(400 / 100), rel=0.2)

    def test_negative_users_rejected(self):
        with pytest.raises(ChainSelectionError):
            cs.expected_chain_load(-1, 10)
