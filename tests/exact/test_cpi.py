"""Tests for characteristic-polynomial reconciliation (the ``cpi`` kind)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact.cpi import (
    CharacteristicPolynomialReconciler,
    DiscrepancyExceeded,
    _poly_gcd,
)
from repro.reconcile import SummaryError, build_summary


def difference(sa, sb, max_discrepancy, seed):
    """``S_B - S_A`` as B recovers it from A's ``cpi`` summary."""
    summary = build_summary("cpi", sa, max_discrepancy=max_discrepancy, seed=seed)
    return set(summary.missing_from(sb))


class TestCPIBasics:
    def test_simple_difference(self):
        sa = {1, 2, 3, 4, 5}
        sb = {4, 5, 6, 7}
        assert difference(sa, sb, 10, 1) == {6, 7}

    def test_identical_sets(self):
        s = set(range(100, 150))
        assert difference(s, s, 6, 2) == set()

    def test_disjoint_small_sets(self):
        sa = {10, 20, 30}
        sb = {40, 50, 60}
        assert difference(sa, sb, 8, 3) == sb

    def test_empty_a(self):
        sb = {1, 2, 3}
        assert difference(set(), sb, 6, 4) == sb

    def test_empty_b(self):
        assert difference({1, 2, 3}, set(), 6, 5) == set()

    def test_unequal_sizes(self):
        sa = set(range(1000, 1010))  # |A| = 10
        sb = set(range(1005, 1008))  # subset of A, discrepancy = 7
        assert difference(sa, sb, 12, 6) == set()

    def test_overgenerous_bound_still_exact(self):
        sa = {5, 6, 7}
        sb = {7, 8}
        assert difference(sa, sb, 40, 7) == {8}

    def test_exceeded_bound_detected(self):
        rng = random.Random(9)
        sa = set(rng.sample(range(1 << 40), 50))
        sb = set(rng.sample(range(1 << 40), 50))  # discrepancy ~100 >> 4
        with pytest.raises(DiscrepancyExceeded):
            difference(sa, sb, 4, 8)

    def test_key_outside_universe_rejected(self):
        with pytest.raises(SummaryError):
            build_summary("cpi", {1 << 60}, max_discrepancy=4, seed=1)

    def test_incompatible_message_rejected(self):
        r2 = CharacteristicPolynomialReconciler(max_discrepancy=4, seed=2)
        message = build_summary("cpi", {1, 2}, max_discrepancy=4, seed=1)
        with pytest.raises(ValueError):
            r2.difference(message, {3})

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            CharacteristicPolynomialReconciler(max_discrepancy=0)
        with pytest.raises(SummaryError):
            build_summary("cpi", {1}, max_discrepancy=0)

    def test_wire_size_linear_in_bound_not_set_size(self):
        sk1 = build_summary("cpi", set(range(100)), max_discrepancy=10, seed=1)
        sk2 = build_summary("cpi", set(range(10_000)), max_discrepancy=10, seed=1)
        assert sk1.wire_bytes() == sk2.wire_bytes()  # O(d log u), not O(n)


class TestCPIProperty:
    @given(
        common=st.sets(st.integers(min_value=0, max_value=2**30), max_size=40),
        only_a=st.sets(st.integers(min_value=2**31, max_value=2**32), max_size=8),
        only_b=st.sets(st.integers(min_value=2**33, max_value=2**34), max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_exact_difference(self, common, only_a, only_b):
        sa = common | only_a
        sb = common | only_b
        assert difference(sa, sb, 20, 11) == only_b


class TestPolyHelpers:
    def test_gcd_of_coprime_is_one(self):
        # (x - 1) and (x - 2) are coprime.
        p = [(-1) % ((1 << 61) - 1), 1]
        q = [(-2) % ((1 << 61) - 1), 1]
        assert _poly_gcd(p, q) == [1]

    def test_gcd_finds_common_root(self):
        mod = (1 << 61) - 1
        # (x - 3)(x - 1) and (x - 3)(x - 2) share (x - 3).
        p = [3 % mod, (-4) % mod, 1]
        q = [6 % mod, (-5) % mod, 1]
        g = _poly_gcd(p, q)
        assert len(g) == 2
        # root of g should be 3: g(3) == 0
        assert (g[0] + g[1] * 3) % mod == 0
