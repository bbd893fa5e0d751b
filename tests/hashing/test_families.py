"""Tests for the Bloom filter's hash family."""

import pytest

from repro.hashing.families import BloomHashes


class TestBloomHashes:
    def test_index_count_and_range(self):
        bh = BloomHashes(k=5, m=97, seed=0)
        idx = bh.indices(12345)
        assert len(idx) == 5
        assert all(0 <= i < 97 for i in idx)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BloomHashes(k=0, m=10, seed=0)
        with pytest.raises(ValueError):
            BloomHashes(k=3, m=0, seed=0)

    def test_deterministic(self):
        bh = BloomHashes(k=3, m=101, seed=9)
        assert bh.indices(7) == bh.indices(7)

    def test_distinct_keys_mostly_distinct_indices(self):
        bh = BloomHashes(k=3, m=10_007, seed=1)
        a, b = bh.indices(111), bh.indices(222)
        assert a != b

    def test_power_of_two_table_coverage(self):
        # Odd-forced h2 must cover a power-of-two table.
        bh = BloomHashes(k=64, m=64, seed=4)
        assert len(set(bh.indices(999))) > 32
