"""Tests for the counting Bloom filter (the ``counting_bloom`` kind)."""

import pytest

from repro.reconcile import SummaryError, build_summary, summary_from_payload


def counting(ids, m_buckets, k_hashes, seed=0):
    return build_summary(
        "counting_bloom", ids, m_buckets=m_buckets, k_hashes=k_hashes, seed=seed
    )


def received(summary):
    """The summary as a peer reconstructs it: no ids, counters only."""
    return summary_from_payload(summary.to_payload())


class TestCountingBloom:
    def test_add_then_contains(self):
        cbf = build_summary("counting_bloom", range(100))
        assert all(x in cbf for x in range(100))

    def test_remove_restores_absence(self):
        cbf = counting([42], 2048, 4, seed=1)
        assert 42 in cbf
        assert 42 not in cbf.remove(42)
        assert 42 in cbf  # a summary handed out never changes

    def test_remove_absent_raises(self):
        cbf = counting([], 1024, 3)
        with pytest.raises(SummaryError):
            cbf.remove(7)

    def test_remove_keeps_other_members(self):
        cbf = counting(range(200), 4096, 4, seed=2).remove(0)
        assert all(x in cbf for x in range(1, 200))

    def test_multiset_semantics(self):
        one = received(counting([5], 1024, 3, seed=3))
        cbf = one.merge(one)  # counters sum: 5 is held twice
        cbf = cbf.remove(5)
        assert 5 in cbf  # one occurrence remains
        assert 5 not in cbf.remove(5)

    def test_count_tracking(self):
        cbf = counting([1, 2], 1024, 3)
        assert cbf.remove(1).count == 1

    def test_remove_then_absorb_is_the_build(self):
        cbf = counting(range(50), 1024, 3, seed=4)
        assert cbf.remove(7).absorb([7]).to_payload() == cbf.to_payload()

    def test_rejects_bad_params(self):
        with pytest.raises(SummaryError):
            counting([1], -1, 3)
        with pytest.raises(SummaryError):
            counting([1], 8, 0)

    def test_size_bytes(self):
        cbf = counting([], 1000, 3)
        assert cbf.wire_bytes() == 4 + 12 + 2000
