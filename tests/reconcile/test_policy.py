"""SummaryPolicy: building, reconciling, and estimating through one object."""

import random

import pytest

from repro.reconcile import (
    CALLING_CARD,
    DEFAULT_POLICY,
    SummaryError,
    SummaryPolicy,
    UnknownSummaryError,
)
from repro.reconcile import policy as policy_module
from repro.reconcile.policy import correlation_from_summaries


@pytest.fixture()
def sets():
    rng = random.Random(9)
    a = set(rng.sample(range(2000), 300))
    b = set(rng.sample(range(2000), 300))
    return a, b


class TestConstruction:
    def test_unknown_kind_fails_fast(self):
        with pytest.raises(UnknownSummaryError):
            SummaryPolicy(kind="nope")

    def test_default_policy_is_minwise_plus_bloom(self):
        assert CALLING_CARD.kind == "minwise"
        assert DEFAULT_POLICY.kind == "bloom"
        assert dict(CALLING_CARD.params)["entries"] == 128

    def test_equality_and_hash(self):
        p1 = SummaryPolicy(kind="art", params={"bits_per_element": 8})
        p2 = SummaryPolicy(kind="art", params={"bits_per_element": 8})
        p3 = SummaryPolicy(kind="art", params={"bits_per_element": 16})
        assert p1 == p2 and hash(p1) == hash(p2)
        assert p1 != p3

    def test_build_and_card_use_their_kinds(self, sets):
        a, _ = sets
        policy = SummaryPolicy(kind="art")
        assert policy.build(a).kind == "art"


class TestReconciliation:
    def test_useful_subset_is_sound(self, sets):
        a, b = sets
        policy = SummaryPolicy(kind="bloom")
        remote = policy.build(a)
        useful = policy.useful_subset(remote, sorted(b))
        assert set(useful) <= b - a
        assert len(useful) > 0.8 * len(b - a)

    def test_useful_subset_keeps_what_a_partition_does_not_cover(self, sets):
        """One residue partition vouches for its class alone: a covered
        candidate is kept only when the filter misses it, every
        uncovered one is kept, and candidate order survives."""
        a, b = sets
        policy = SummaryPolicy(kind="partitioned_bloom", params={"rho": 4, "beta": 1})
        remote = policy.build(a)
        candidates = sorted(b)
        useful = policy.useful_subset(remote, iter(candidates))
        uncovered = [x for x in candidates if not remote.covers(x)]
        assert set(useful) == set(uncovered) | set(remote.missing_from(candidates))
        assert useful == [x for x in candidates if x in set(useful)]
        assert {x for x in useful if remote.covers(x)} <= b - a
        # A needed id is dropped only as a covered Bloom false positive.
        dropped = (b - a) - set(useful)
        assert all(remote.covers(x) and remote.may_contain(x) for x in dropped)

    def test_a_partition_summary_carries_a_pair_transfer(self):
        from repro.api import run, specs

        spec = specs.pair_transfer(target=120, correlation=0.2)
        result = run(spec.with_summary("partitioned_bloom"))
        assert result.completed

    def test_correlation_via_difference_search(self, sets):
        a, b = sets
        policy = SummaryPolicy(kind="bloom")
        remote = policy.build(a)
        c = policy.correlation(remote, sorted(b))
        truth = len(a & b) / len(b)
        assert abs(c - truth) < 0.1

    def test_correlation_via_estimation_only(self, sets):
        a, b = sets
        policy = SummaryPolicy(kind="minwise", params={"entries": 256})
        remote = policy.build(a)
        c = policy.correlation(remote, sorted(b))
        truth = len(a & b) / len(b)
        assert abs(c - truth) < 0.15

    def test_correlation_of_empty_local_set(self, sets):
        a, _ = sets
        policy = SummaryPolicy(kind="bloom")
        assert policy.correlation(policy.build(a), []) == 0.0

    def test_capability_probes(self):
        assert SummaryPolicy(kind="bloom").can_filter
        assert not SummaryPolicy(kind="minwise").can_filter

    def test_correlation_identical_sets_is_one(self, sets):
        a, _ = sets
        policy = SummaryPolicy(kind="wholeset")
        assert policy.correlation(policy.build(a), sorted(a)) == 1.0

    def test_cpi_bound_exceeded_reads_as_low_correlation(self, sets):
        """DiscrepancyExceeded means 'more different than the bound' —
        correlation degrades to 0.0 instead of crashing."""
        a, b = sets
        policy = SummaryPolicy(kind="cpi", params={"max_discrepancy": 4})
        assert policy.correlation(policy.build(a), sorted(b)) == 0.0

    def test_partial_coverage_summary_estimates_not_counts(self):
        """A partitioned filter covers 1/rho of keys; uncovered keys must
        not read as shared (correlation would float at (rho-1)/rho)."""
        policy = SummaryPolicy(
            kind="partitioned_bloom", params={"rho": 4, "beta": 0}
        )
        remote = policy.build(range(10_000, 10_500))
        disjoint = policy.correlation(remote, range(500))
        assert disjoint < 0.2

    @pytest.mark.parametrize("beta", [0, 1, 3])
    def test_partial_coverage_correlation_searches_without_a_local_build(
        self, sets, monkeypatch, beta
    ):
        """The remote's own search, clamped as the kind's estimate is:
        the same float as inclusion-exclusion over a local summary,
        which is never built."""
        a, b = sets
        policy = SummaryPolicy(kind="partitioned_bloom", params={"rho": 4, "beta": beta})
        remote = policy.build(a)
        mine = policy.build(b)
        expected = correlation_from_summaries(mine, remote, frozenset(b))

        def no_build(*args, **kwargs):
            raise AssertionError("correlation built a local summary")

        monkeypatch.setattr(policy_module, "build_summary", no_build)
        assert policy.correlation(remote, sorted(b)) == expected

    @pytest.mark.parametrize("k, remote_size", [(0, 300), (16, 300), (128, 40)])
    def test_random_sample_correlation_reads_the_sample_without_a_local_build(
        self, sets, monkeypatch, k, remote_size
    ):
        """The remote's sample looked up in the caller's ids, clamped as
        the kind's estimate is: the same float as inclusion-exclusion
        over a local sample, which is never built."""
        a, b = sets
        policy = SummaryPolicy(kind="random_sample", params={"k": k, "seed": 3})
        remote = policy.build(sorted(a)[:remote_size])
        mine = policy.build(b)
        expected = correlation_from_summaries(mine, remote, frozenset(b))

        def no_build(*args, **kwargs):
            raise AssertionError("correlation built a local summary")

        monkeypatch.setattr(policy_module, "build_summary", no_build)
        assert repr(policy.correlation(remote, sorted(b))) == repr(expected)

    def test_correlation_against_a_different_kind_card(self, sets):
        """The local comparison summary adopts the remote's own family
        (compatible_build_params), not the policy's params."""
        a, b = sets
        policy = SummaryPolicy(kind="bloom", params={"bits_per_element": 8})
        card = CALLING_CARD.build(a)  # min-wise, not bloom
        c = policy.correlation(card, sorted(b))
        truth = len(a & b) / len(b)
        assert abs(c - truth) < 0.25
