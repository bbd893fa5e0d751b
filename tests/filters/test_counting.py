"""Tests for the counting Bloom filter (the ``counting_bloom`` kind)."""

import pytest

from repro.reconcile import SummaryError, build_summary


class TestCountingBloom:
    def test_add_then_contains(self):
        cbf = build_summary("counting_bloom", range(100))
        assert all(cbf.may_contain(x) for x in range(100))

    def test_count_tracking(self):
        cbf = build_summary("counting_bloom", [1, 2, 2], k_hashes=3)
        assert cbf.count == cbf.set_size == 2

    def test_rejects_bad_params(self):
        with pytest.raises(SummaryError):
            build_summary("counting_bloom", [1], k_hashes=0)
        # Sized from the set alone: a pinned bucket count is no parameter.
        with pytest.raises(SummaryError, match="m_buckets"):
            build_summary("counting_bloom", [1], m_buckets=64)

    def test_size_bytes(self):
        cbf = build_summary(
            "counting_bloom", range(100), buckets_per_element=10, k_hashes=3
        )
        assert cbf.wire_bytes() == 4 + 12 + 2000
