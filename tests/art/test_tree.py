"""Tests for the reconciliation trie structure."""

import random

import pytest

from repro.art.tree import ReconciliationTrie


def internal_and_leaves(trie):
    """(internal, leaf) node counts."""
    leaves = sum(1 for node in trie.nodes() if node.is_leaf)
    return sum(1 for _ in trie.nodes()) - leaves, leaves


def height(node):
    """Edges on the longest root-to-leaf path of the collapsed trie."""
    if node is None or node.is_leaf:
        return 0
    return 1 + max(height(node.left), height(node.right))


class TestTrieConstruction:
    def test_empty_trie(self):
        t = ReconciliationTrie([])
        assert t.root is None
        assert t.size == 0
        assert height(t.root) == 0

    def test_singleton(self):
        t = ReconciliationTrie([42])
        assert t.root is not None
        assert t.root.is_leaf
        assert t.root.element == 42
        assert t.root.value == t.value_hash(42)

    def test_duplicates_collapse(self):
        t = ReconciliationTrie([7, 7, 7])
        assert t.size == 1

    def test_leaf_count_equals_set_size(self):
        keys = random.Random(1).sample(range(1 << 40), 500)
        t = ReconciliationTrie(keys)
        internal, leaves = internal_and_leaves(t)
        assert leaves == 500 - t.collision_count
        # A binary tree with L leaves has L-1 internal nodes.
        assert internal == leaves - 1

    def test_root_value_is_xor_of_all(self):
        keys = random.Random(2).sample(range(1 << 40), 200)
        t = ReconciliationTrie(keys)
        expected = 0
        for k in keys:
            expected ^= t.value_hash(k)
        assert t.root.value == expected

    def test_internal_value_is_xor_of_children(self):
        keys = random.Random(3).sample(range(1 << 40), 300)
        t = ReconciliationTrie(keys)
        for node in t.nodes():
            if not node.is_leaf:
                assert node.value == node.left.value ^ node.right.value

    def test_depth_logarithmic(self):
        keys = random.Random(4).sample(range(1 << 40), 2000)
        t = ReconciliationTrie(keys)
        # Paper: collapsed depth O(log |S|) whp; allow a wide constant.
        assert height(t.root) <= 4 * 11  # 4 * log2(2000)

    def test_insertion_order_invariance(self):
        keys = random.Random(5).sample(range(1 << 40), 100)
        t1 = ReconciliationTrie(keys)
        t2 = ReconciliationTrie(reversed(keys))
        assert sorted(t1.internal_values()) == sorted(t2.internal_values())
        assert sorted(t1.leaf_values()) == sorted(t2.leaf_values())

    def test_value_hash_never_zero(self):
        t = ReconciliationTrie(range(1000))
        assert all(t.value_hash(k) != 0 for k in range(1000))


class TestTrieComparability:
    def test_same_seed_same_values_for_same_set(self):
        keys = random.Random(6).sample(range(1 << 40), 150)
        t1 = ReconciliationTrie(keys, seed=9)
        t2 = ReconciliationTrie(keys, seed=9)
        assert sorted(t1.internal_values()) == sorted(t2.internal_values())

    def test_shared_subset_shares_node_values(self):
        # Peers with overlapping sets materialise common subtree values.
        rng = random.Random(7)
        common = rng.sample(range(1 << 40), 300)
        only_a = rng.sample(range(1 << 41, 1 << 42), 50)
        t_a = ReconciliationTrie(common + only_a, seed=1)
        t_b = ReconciliationTrie(common, seed=1)
        values_a = set(t_a.internal_values()) | set(t_a.leaf_values())
        shared = [v for v in t_b.leaf_values() if v in values_a]
        assert len(shared) == len(t_b.leaf_values())  # every common leaf matches

    def test_different_seed_different_values(self):
        keys = list(range(100))
        t1 = ReconciliationTrie(keys, seed=1)
        t2 = ReconciliationTrie(keys, seed=2)
        assert set(t1.leaf_values()) != set(t2.leaf_values())

    def test_different_sizes_leaf_values_comparable(self):
        # position_bits differs with set size, but leaf values (pure H2)
        # stay comparable — crucial for unequal peers.
        small = ReconciliationTrie(range(50), seed=3)
        large = ReconciliationTrie(range(5000), seed=3)
        assert small.value_hash(10) == large.value_hash(10)
