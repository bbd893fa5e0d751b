"""Tests for the random-sample calling card (the ``random_sample`` kind)."""

import random

import pytest

from repro.reconcile import SummaryError, build_summary, summary_from_payload


def sample(ids, k, seed=0):
    return build_summary("random_sample", ids, k=k, seed=seed)


def containment_in(remote, keys):
    """Share of the sampled keys ``keys`` holds: the unbiased estimate
    of ``|A ∩ B| / |A|`` for the sampled set ``A``."""
    return sum(1 for key in remote.sample if key in keys) / len(remote.sample)


class TestRandomSampleBasics:
    def test_build_sizes(self):
        sk = sample(range(1000), k=50, seed=1)
        assert len(sk.sample) == 50
        assert sk.set_size == 1000

    def test_empty_set_empty_sample(self):
        sk = sample([], k=10, seed=1)
        assert len(sk.sample) == 0
        assert sk.set_size == 0

    def test_negative_k_rejected(self):
        with pytest.raises(SummaryError):
            sample(range(10), k=-1)

    def test_inconsistent_payload_rejected(self):
        payload = sample([], k=10).to_payload()
        payload["sample"] = [1, 2]
        with pytest.raises(SummaryError):
            summary_from_payload(payload)

    def test_sample_drawn_from_set(self):
        keys = set(range(100, 200))
        sk = sample(keys, k=30, seed=2)
        assert all(s in keys for s in sk.sample)

    def test_estimate_from_empty_sample_reads_sizes_only(self):
        local = sample(range(10), k=4)
        assert local.estimate_difference(sample([], k=4), set(range(10))) == 10.0

    def test_packet_size(self):
        sk = sample(range(1000), 128, seed=3)
        assert sk.wire_bytes() == 4 + 8 * 128


class TestRandomSampleEstimates:
    @pytest.mark.parametrize("containment", [0.0, 0.25, 0.5, 1.0])
    def test_containment_estimate_unbiased(self, containment):
        rng = random.Random(int(containment * 8) + 3)
        size = 4000
        overlap = int(containment * size)
        pool = rng.sample(range(1 << 30), 2 * size - overlap)
        sketched = set(pool[:size])
        other = set(pool[size - overlap :])
        truth = len(sketched & other) / len(sketched)
        remotes = [sample(sketched, 128, rng.randrange(1 << 32)) for _ in range(10)]
        estimates = [containment_in(r, other) for r in remotes]
        assert abs(sum(estimates) / len(estimates) - truth) < 0.08
        # The summary's estimate is the same hit count, from the local side.
        local = sample(other, 0)
        differences = [local.estimate_difference(r, other) for r in remotes]
        mean = sum(differences) / len(differences)
        assert abs(mean - len(sketched ^ other)) < 0.16 * size

    def test_full_containment(self):
        keys = set(range(500))
        sk = sample(keys, 64, seed=4)
        assert containment_in(sk, keys) == 1.0
        assert sample(keys, 0).estimate_difference(sk, keys) == 0.0

    def test_zero_containment(self):
        sk = sample(range(500), 64, seed=5)
        assert containment_in(sk, set(range(1000, 2000))) == 0.0
        held = set(range(1000, 2000))
        assert sample(held, 0).estimate_difference(sk, held) == 1500.0
