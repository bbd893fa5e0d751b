"""Property-based tests for filter invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import BloomFilter

key_sets = st.sets(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300)


class TestBloomProperties:
    @given(keys=key_sets, seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_never_false_negative(self, keys, seed):
        bf = BloomFilter.for_elements(keys, bits_per_element=6, seed=seed)
        assert all(k in bf for k in keys)

    @given(keys=key_sets)
    @settings(max_examples=30, deadline=None)
    def test_union_superset_of_parts(self, keys):
        half = len(keys) // 2
        items = sorted(keys)
        a = BloomFilter(4096, 3, seed=1)
        b = BloomFilter(4096, 3, seed=1)
        a.update(items[:half])
        b.update(items[half:])
        u = a.union(b)
        assert all(k in u for k in keys)

    @given(keys=key_sets)
    @settings(max_examples=30, deadline=None)
    def test_serialisation_preserves_membership(self, keys):
        bf = BloomFilter.for_elements(keys, bits_per_element=8, seed=7)
        clone = BloomFilter.from_bytes(bf.to_bytes(), bf.m, bf.k, bf.seed)
        assert all(k in clone for k in keys)

    @given(keys=key_sets)
    @settings(max_examples=30, deadline=None)
    def test_fill_ratio_monotone(self, keys):
        bf = BloomFilter(2048, 3, seed=0)
        last = 0.0
        for k in sorted(keys):
            bf.add(k)
            ratio = bf.fill_ratio()
            assert ratio >= last
            last = ratio
