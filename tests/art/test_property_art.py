"""Property-based tests for ART invariants."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.art import ExactTreeSummary, ReconciliationTrie, find_difference
from repro.reconcile import build_summary

key_sets = st.sets(st.integers(min_value=0, max_value=2**38), min_size=0, max_size=200)


class TestTrieProperties:
    @given(keys=key_sets)
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, keys):
        t = ReconciliationTrie(keys, seed=3)
        leaves = sum(1 for node in t.nodes() if node.is_leaf)
        internal = sum(1 for node in t.nodes() if not node.is_leaf)
        if t.collision_count == 0:
            assert leaves == len(keys)
        if leaves:
            assert internal == leaves - 1
        for node in t.nodes():
            if not node.is_leaf:
                assert node.value == node.left.value ^ node.right.value
                assert node.depth < node.left.depth
                assert node.depth < node.right.depth

    @given(keys=key_sets)
    @settings(max_examples=40, deadline=None)
    def test_prefixes_consistent(self, keys):
        t = ReconciliationTrie(keys, seed=4)
        for node in t.nodes():
            if node.is_leaf:
                continue
            shift_l = node.left.depth - node.depth
            shift_r = node.right.depth - node.depth
            assert node.left.prefix >> shift_l == node.prefix
            assert node.right.prefix >> shift_r == node.prefix
            # Left child extends the prefix with a 0 bit, right with 1.
            assert (node.left.prefix >> (shift_l - 1)) & 1 == 0
            assert (node.right.prefix >> (shift_r - 1)) & 1 == 1


class TestSearchProperties:
    @given(
        common=key_sets,
        only_b=st.sets(
            st.integers(min_value=2**39, max_value=2**40), min_size=0, max_size=50
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_summary_search_is_exact(self, common, only_b):
        trie_a = ReconciliationTrie(common, seed=7)
        trie_b = ReconciliationTrie(common | only_b, seed=7)
        # The search is exact only up to H1 collisions: a collision merges
        # two keys into one leaf, whose XORed value matches neither side.
        assume(trie_a.collision_count == 0 and trie_b.collision_count == 0)
        stats = find_difference(trie_b, ExactTreeSummary(trie_a), correction=0)
        assert set(stats.differences) == only_b

    @given(
        common=key_sets,
        only_b=st.sets(
            st.integers(min_value=2**39, max_value=2**40), min_size=0, max_size=50
        ),
        bits=st.sampled_from([2, 4, 8]),
        correction=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_bloom_summary_never_reports_common_elements(
        self, common, only_b, bits, correction
    ):
        if not common and not only_b:
            return
        art_a = build_summary("art", common, bits_per_element=bits, seed=9)
        trie_b = ReconciliationTrie(common | only_b, seed=9)
        # Bloom errors only ever hide differences, but an H1 collision can
        # merge a common key with a genuinely-new one, and the merged leaf
        # then (correctly) surfaces under the common key's name.
        trie_a = ReconciliationTrie(common, seed=9)
        assume(trie_a.collision_count == 0 and trie_b.collision_count == 0)
        stats = find_difference(trie_b, art_a, correction=correction)
        assert set(stats.differences) <= only_b
