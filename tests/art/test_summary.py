"""Tests for ART summaries: exact, and Bloom-filtered (the ``art`` kind)."""

import random

import pytest

from repro.art import ExactTreeSummary, ReconciliationTrie
from repro.reconcile import SummaryError, build_summary


def art(ids, **params):
    return build_summary("art", ids, **params)


def filter_bytes(s):
    return len(s.leaf_filter.bits) + len(s.internal_filter.bits)


class TestExactSummary:
    def test_matches_own_values(self):
        trie = ReconciliationTrie(range(200), seed=1)
        s = ExactTreeSummary(trie)
        for v in trie.internal_values():
            assert s.matches_internal(v)
        for v in trie.leaf_values():
            assert s.matches_leaf(v)

    def test_does_not_match_foreign_values(self):
        trie = ReconciliationTrie(range(200), seed=1)
        s = ExactTreeSummary(trie)
        assert not s.matches_leaf(123456789)


class TestARTSummary:
    def test_no_false_negatives_on_node_values(self):
        ids = random.Random(1).sample(range(1 << 40), 500)
        s = art(ids, bits_per_element=8, seed=2)
        trie = ReconciliationTrie(ids, seed=2)
        assert all(s.matches_internal(v) for v in trie.internal_values())
        assert all(s.matches_leaf(v) for v in trie.leaf_values())

    def test_size_respects_budget(self):
        s = art(range(1000), bits_per_element=8, seed=3)
        # 8 bits/elt over 1000 elements = 1000 bytes total (±rounding).
        assert abs(filter_bytes(s) - 1000) <= 16
        assert s.wire_bytes() == 4 + 2 * 12 + filter_bytes(s)

    def test_leaf_split_controls_relative_sizes(self):
        mostly_leaf = art(range(1000), bits_per_element=8, leaf_bits_per_element=6, seed=4)
        mostly_internal = art(
            range(1000), bits_per_element=8, leaf_bits_per_element=2, seed=4
        )
        assert mostly_leaf.leaf_filter.m > mostly_internal.leaf_filter.m

    def test_invalid_budgets_rejected(self):
        with pytest.raises(SummaryError):
            art(range(10), bits_per_element=0, seed=5)
        with pytest.raises(SummaryError):
            art(range(10), bits_per_element=8, leaf_bits_per_element=8, seed=5)
        with pytest.raises(SummaryError):
            art(range(10), bits_per_element=8, leaf_bits_per_element=0, seed=5)

    def test_more_bits_fewer_false_positives(self):
        keys = random.Random(6).sample(range(1 << 40), 2000)
        small = art(keys, bits_per_element=2, seed=6)
        large = art(keys, bits_per_element=12, seed=6)
        probes = random.Random(7).sample(range(1 << 50, 1 << 51), 3000)
        fp_small = sum(small.matches_leaf(p) for p in probes)
        fp_large = sum(large.matches_leaf(p) for p in probes)
        assert fp_large < fp_small
