"""Tests for difference search with correction levels."""

import random

import pytest

from repro.art import ExactTreeSummary, ReconciliationTrie, find_difference
from repro.reconcile import SummaryError, build_summary


def make_pair(n, d, seed=1):
    rng = random.Random(seed)
    common = rng.sample(range(1 << 40), n)
    extra = rng.sample(range(1 << 41, 1 << 42), d)
    return common, common[d:] + extra  # B has d new, misses d of A's


class TestExactSearch:
    def test_finds_all_differences_with_exact_summary(self):
        set_a, set_b = make_pair(500, 20)
        trie_a = ReconciliationTrie(set_a, seed=5)
        trie_b = ReconciliationTrie(set_b, seed=5)
        stats = find_difference(trie_b, ExactTreeSummary(trie_a), correction=0)
        assert set(stats.differences) == set(set_b) - set(set_a)

    def test_identical_sets_no_differences_and_pruned_at_root(self):
        keys = list(range(1000, 1300))
        trie_a = ReconciliationTrie(keys, seed=2)
        trie_b = ReconciliationTrie(keys, seed=2)
        stats = find_difference(trie_b, ExactTreeSummary(trie_a), correction=0)
        assert stats.differences == []
        assert stats.nodes_visited == 1  # root matches, search stops

    def test_disjoint_sets_everything_found(self):
        trie_a = ReconciliationTrie(range(0, 200), seed=3)
        trie_b = ReconciliationTrie(range(10_000, 10_200), seed=3)
        stats = find_difference(trie_b, ExactTreeSummary(trie_a), correction=0)
        assert set(stats.differences) == set(range(10_000, 10_200))

    def test_empty_local_trie(self):
        trie_a = ReconciliationTrie(range(100), seed=1)
        trie_b = ReconciliationTrie([], seed=1)
        stats = find_difference(trie_b, ExactTreeSummary(trie_a))
        assert stats.differences == []
        assert stats.nodes_visited == 0

    def test_negative_correction_rejected(self):
        trie = ReconciliationTrie(range(10), seed=1)
        with pytest.raises(ValueError):
            find_difference(trie, ExactTreeSummary(trie), correction=-1)

    def test_no_spurious_differences(self):
        # The search may MISS differences but must never report an
        # element A actually has (the informed-transfer guarantee).
        set_a, set_b = make_pair(2000, 50, seed=9)
        art_a = build_summary("art", set_a, bits_per_element=2, seed=4)
        trie_b = ReconciliationTrie(set_b, seed=4)
        for correction in (0, 2, 5):
            stats = find_difference(trie_b, art_a, correction=correction)
            assert set(stats.differences) <= set(set_b) - set(set_a)


class TestCorrectionLevels:
    def test_accuracy_improves_with_correction(self):
        set_a, set_b = make_pair(3000, 60, seed=11)
        true_diff = set(set_b) - set(set_a)
        summary = build_summary("art", set_a, bits_per_element=4, seed=6)
        trie_b = ReconciliationTrie(set_b, seed=6)
        found = {
            c: len(set(find_difference(trie_b, summary, correction=c).differences))
            for c in (0, 2, 5)
        }
        assert found[2] >= found[0]
        assert found[5] >= found[2]
        assert found[5] > 0

    def test_correction_increases_work(self):
        set_a, set_b = make_pair(3000, 60, seed=13)
        summary = build_summary("art", set_a, bits_per_element=4, seed=8)
        trie_b = ReconciliationTrie(set_b, seed=8)
        v0 = find_difference(trie_b, summary, correction=0).nodes_visited
        v5 = find_difference(trie_b, summary, correction=5).nodes_visited
        assert v5 >= v0

    def test_search_cost_scales_with_difference_not_set_size(self):
        # O(d log n): doubling n with fixed d should grow visits far less
        # than doubling d with fixed n grows found-work.
        seeds = iter(range(20, 30))
        visits = {}
        for n in (1000, 4000):
            set_a, set_b = make_pair(n, 30, seed=next(seeds))
            t_a = ReconciliationTrie(set_a, seed=1)
            t_b = ReconciliationTrie(set_b, seed=1)
            stats = find_difference(t_b, ExactTreeSummary(t_a), correction=0)
            visits[n] = stats.nodes_visited
        assert visits[4000] < 4 * visits[1000]


class TestSeedMismatch:
    def test_mismatched_seed_rejected(self):
        art_a = build_summary("art", range(100), seed=1)
        art_b = build_summary("art", range(100), seed=2)
        with pytest.raises(SummaryError, match="seed"):
            art_b.estimate_difference(art_a)

    def test_missing_from_is_the_search_over_the_candidates_trie(self):
        set_a, set_b = make_pair(1000, 30, seed=15)
        summary = build_summary("art", set_a, seed=3, correction=2)
        stats = find_difference(ReconciliationTrie(set_b, seed=3), summary, correction=2)
        assert summary.missing_from(set_b) == stats.differences
