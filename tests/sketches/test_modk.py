"""Tests for the mod-k calling card (the ``modk`` summary kind)."""

import random

import pytest

from repro.reconcile import SummaryError, build_summary


def modk(ids, modulus, seed=0, **params):
    return build_summary("modk", ids, modulus=modulus, seed=seed, **params)


def difference_truth(sa, sb):
    return len(sa ^ sb)


class TestModKBasics:
    def test_build_selects_expected_fraction(self):
        keys = range(100_000)
        sk = modk(keys, modulus=100, seed=1)
        # Expect ~1000 elements; allow wide tolerance.
        assert 800 <= len(sk.sample) <= 1200

    def test_deterministic(self):
        keys = list(range(1000))
        a = modk(keys, 10, seed=2)
        b = modk(keys, 10, seed=2)
        assert a.sample == b.sample

    def test_rejects_bad_modulus(self):
        with pytest.raises(SummaryError):
            modk([1], 0)

    def test_incompatible_sketches_rejected(self):
        a = modk(range(100), 10, seed=1)
        b = modk(range(100), 10, seed=2)
        with pytest.raises(SummaryError):
            a.estimate_difference(b)
        c = modk(range(100), 20, seed=1)
        with pytest.raises(SummaryError):
            a.estimate_difference(c)

    def test_empty_other_sample_reads_as_no_overlap(self):
        a = modk(range(1000), 5, seed=3)
        b = modk([], 5, seed=3)
        assert not b.sample
        assert a.estimate_difference(b) == 1000.0


class TestModKEstimates:
    def _sets(self, containment, size, rng):
        overlap = int(containment * size)
        pool = rng.sample(range(1 << 30), 2 * size - overlap)
        b = pool[:size]
        a = pool[size - overlap :]
        return set(a), set(b)

    @pytest.mark.parametrize("containment", [0.0, 0.3, 0.7, 1.0])
    def test_containment_estimate(self, containment):
        rng = random.Random(int(containment * 10) + 1)
        sa, sb = self._sets(containment, 20_000, rng)
        a = modk(sa, 50, seed=5)
        b = modk(sb, 50, seed=5)
        truth = len(sa & sb) / len(sb)
        # The two samples keep the same keys: |A_k ∩ B_k| / |B_k| is
        # the containment estimate ...
        assert abs(len(a.sample & b.sample) / len(b.sample) - truth) < 0.1
        # ... and the summary's difference estimate rests on it.
        error = abs(a.estimate_difference(b) - difference_truth(sa, sb))
        assert error < 0.1 * len(sb)

    def test_identical_sets(self):
        keys = set(range(5000))
        a = modk(keys, 20, seed=7)
        b = modk(keys, 20, seed=7)
        assert a.sample == b.sample
        assert a.estimate_difference(b) == 0.0

    def test_resemblance_disjoint(self):
        a = modk(range(0, 10_000), 20, seed=9)
        b = modk(range(10_000, 20_000), 20, seed=9)
        assert not a.sample & b.sample
        assert a.estimate_difference(b) == 20_000.0


class TestModKTruncation:
    def test_truncation_bounds_size(self):
        sk = modk(range(100_000), 10, seed=11, max_elements=128)
        assert len(sk.sample) == 128

    def test_truncated_sketches_remain_comparable(self):
        # Bottom-k truncation on both sides keeps estimates sane.
        rng = random.Random(13)
        pool = rng.sample(range(1 << 30), 30_000)
        sa = set(pool[:20_000])
        sb = set(pool[10_000:])
        a = modk(sa, 10, seed=15, max_elements=256)
        b = modk(sb, 10, seed=15, max_elements=256)
        est = len(a.sample & b.sample) / len(a.sample | b.sample)
        truth = len(sa & sb) / len(sa | sb)
        assert abs(est - truth) < 0.15

    def test_truncation_negative_rejected(self):
        with pytest.raises(SummaryError):
            modk(range(100), 10, max_elements=-1)

    def test_packet_size(self):
        sk = modk(range(10_000), 100, seed=1)
        assert sk.wire_bytes() == 4 + 8 * len(sk.sample)
