"""Tests for the whole-set and hash-set baselines (``wholeset``, ``hashset``)."""

import random

import pytest

from repro.reconcile import SummaryError, build_summary


class TestWholeSet:
    def test_exact_difference(self):
        summary = build_summary("wholeset", {1, 2, 3})
        assert summary.missing_from({2, 3, 4, 5}) == [4, 5]

    def test_wire_cost(self):
        summary = build_summary("wholeset", range(100), key_bits=64)
        assert summary.wire_bytes() == 4 + 800

    def test_empty_sets(self):
        summary = build_summary("wholeset", [])
        assert summary.missing_from([]) == [] and summary.wire_bytes() == 4


def hashset(ids, **params):
    return build_summary("hashset", ids, **params)


class TestHashSet:
    def test_finds_differences(self):
        rng = random.Random(1)
        sa = set(rng.sample(range(1 << 40), 1000))
        sb = set(rng.sample(sorted(sa), 900)) | set(rng.sample(range(1 << 41, 1 << 42), 100))
        summary = hashset(sa, seed=2)
        found = set(summary.missing_from(sb))
        true_diff = sb - sa
        assert found <= true_diff  # no common element reported
        assert len(found) >= 0.95 * len(true_diff)  # rare collision misses

    def test_membership_no_false_negatives(self):
        sa = set(range(500))
        summary = hashset(sa, hash_bits=32, seed=3)
        assert all(summary.may_contain(x) for x in sa)

    def test_narrow_hash_increases_misses(self):
        rng = random.Random(4)
        sa = set(rng.sample(range(1 << 40), 2000))
        sb = set(rng.sample(range(1 << 41, 1 << 42), 2000))
        narrow = hashset(sa, hash_bits=8, seed=5)
        wide = hashset(sa, hash_bits=48, seed=5)
        missed_narrow = len(sb) - len(narrow.missing_from(sb))
        missed_wide = len(sb) - len(wide.missing_from(sb))
        assert missed_wide < missed_narrow

    def test_size_scales_with_hash_width(self):
        sa = set(range(1000))
        s16 = hashset(sa, hash_bits=16, seed=1)
        s48 = hashset(sa, hash_bits=48, seed=1)
        assert s48.wire_bytes() > s16.wire_bytes()

    def test_invalid_width_rejected(self):
        with pytest.raises(SummaryError):
            hashset([1], hash_bits=-1)
        with pytest.raises(SummaryError):
            hashset([1], hash_bits=65)

    def test_polynomial_range_sizing(self):
        s = hashset(range(1024))
        assert s.hash_bits == 30  # 3 * log2(1024)
