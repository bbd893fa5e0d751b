"""Tests for partition filters (Section 5.2 scaling, ``partitioned_bloom``)."""

import random

import pytest

from repro.reconcile import SummaryError, build_summary


def partition(ids, rho, beta, seed=0, **params):
    return build_summary(
        "partitioned_bloom", ids, rho=rho, beta=beta, seed=seed, **params
    )


class TestPartitionedFilter:
    def test_covers_only_its_residue_class(self):
        keys = list(range(10_000))
        pf = partition(keys, rho=4, beta=0, seed=1)
        covered = [k for k in keys if pf.covers(k)]
        # Roughly a quarter of the universe lands in the partition.
        assert 2000 <= len(covered) <= 3000
        assert pf.member_count == len(covered)

    def test_membership_within_partition(self):
        keys = list(range(5000))
        pf = partition(keys, rho=3, beta=1, seed=2)
        for k in keys[:500]:
            if pf.covers(k):
                assert k in pf

    def test_query_outside_partition_is_unknown(self):
        pf = partition(range(100), rho=2, beta=0, seed=3)
        outside = next(k for k in range(1000, 2000) if not pf.covers(k))
        assert outside in pf  # "may contain": this filter cannot say no
        assert pf.missing_from([outside]) == []

    def test_rejects_bad_residue(self):
        with pytest.raises(SummaryError):
            partition(range(10), rho=4, beta=4)
        with pytest.raises(SummaryError):
            partition(range(10), rho=0, beta=0)

    def test_missing_from_finds_absent_covered_keys(self):
        held = set(range(0, 5000))
        pf = partition(held, rho=4, beta=2, seed=5)
        candidates = list(range(5000, 6000))
        found = pf.missing_from(candidates)
        assert all(pf.covers(k) and k not in held for k in found)
        assert found  # some keys of the class are reported

    def test_smaller_than_full_filter(self):
        keys = list(range(8000))
        pf = partition(keys, rho=8, beta=0, seed=1)
        full = build_summary("bloom", keys, bits_per_element=8)
        assert pf.bloom.size_bytes() < full.bloom.size_bytes() / 4


class TestPartitionsTogether:
    """What the pipelined session (``TransferSession.partitioned_rho``)
    relies on: one filter per residue, each built on demand."""

    def test_partitions_tile_the_set(self):
        keys = set(random.Random(7).sample(range(1 << 30), 3000))
        # Missing keys are findable across the union of all partitions.
        absent = set(random.Random(8).sample(range(1 << 31, 1 << 32), 500))
        found = set()
        for beta in range(4):
            found.update(partition(keys, rho=4, beta=beta, seed=9).missing_from(absent))
        assert len(found) > 450  # a few lost to Bloom FPs

    def test_each_residue_covers_a_disjoint_class(self):
        filters = [partition(range(1000), rho=10, beta=b, seed=1) for b in range(10)]
        assert [sum(f.covers(k) for f in filters) for k in range(1000)] == [1] * 1000
        assert sum(f.member_count for f in filters) == 1000

    def test_a_partition_is_the_same_each_time_it_is_built(self):
        assert (
            partition(range(100), rho=2, beta=0, seed=2).to_payload()
            == partition(range(100), rho=2, beta=0, seed=2).to_payload()
        )

    def test_bad_residue_rejected(self):
        with pytest.raises(SummaryError):
            partition(range(10), rho=2, beta=5)

    def test_bad_rho_rejected(self):
        with pytest.raises(SummaryError):
            partition(range(10), rho=0, beta=0)
