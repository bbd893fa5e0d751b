"""Tests for linear permutations and the shared family."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.permutations import (
    LinearPermutation,
    PermutationFamily,
    random_linear_permutation,
)


class TestLinearPermutation:
    def test_figure2_examples(self):
        # The paper's Figure 2 uses (4x+2) mod 64 — but gcd(4, 64) != 1,
        # so it is not actually invertible; our constructor rejects it.
        with pytest.raises(ValueError):
            LinearPermutation(4, 2, 64)

    def test_valid_permutation_bijective(self):
        p = LinearPermutation(13, 12, 64)
        images = {p(x) for x in range(64)}
        assert images == set(range(64))

    def test_invert_roundtrip(self):
        p = LinearPermutation(17, 5, 101)
        for x in range(101):
            assert p.invert(p(x)) == x

    def test_min_over_matches_manual(self):
        p = LinearPermutation(7, 3, 97)
        keys = [5, 20, 33]
        assert p.min_over(keys) == min(p(k) for k in keys)

    def test_rejects_tiny_universe(self):
        with pytest.raises(ValueError):
            LinearPermutation(1, 0, 1)

    @given(st.integers(min_value=2, max_value=2**16))
    @settings(max_examples=50, deadline=None)
    def test_random_permutation_always_invertible(self, universe):
        p = random_linear_permutation(universe, random.Random(0))
        sample = range(0, universe, max(1, universe // 64))
        for x in sample:
            assert p.invert(p(x)) == x


class TestPermutationFamily:
    def test_same_seed_same_permutations(self):
        f1 = PermutationFamily(16, 1 << 20, seed=5)
        f2 = PermutationFamily(16, 1 << 20, seed=5)
        for p1, p2 in zip(f1, f2):
            assert (p1.a, p1.b) == (p2.a, p2.b)

    def test_len_and_iteration(self):
        fam = PermutationFamily(12, 1 << 16, seed=0)
        assert len(fam) == 12
        assert list(fam) == fam.permutations

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            PermutationFamily(0, 1 << 16)
