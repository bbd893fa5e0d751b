"""The Bloom probe kernel: numpy rows equal the scalar probe sequence.

:func:`repro.hashing.batch.bloom_index_matrix` mixes both seeds in one
``(2, n)`` pass; row ``i`` must be ``BloomHashes.indices(keys[i])``
exactly, and a key outside ``[0, 2**64)`` sends the caller to the
scalar loop.  A ``bloom`` card must set and probe exactly the bits
``BloomHashes.indices`` names, key for key, with numpy and with numpy
blocked.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.hashing.batch import bloom_index_matrix
from repro.hashing.families import BloomHashes
from repro.reconcile import build_summary

needs_numpy = pytest.mark.skipif(
    batch._numpy() is None, reason="without numpy there is no kernel"
)

keys_st = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60)
#: Table sizes: tiny, odd, a power of two, and wide enough that
#: ``h1 + i*h2`` needs the pre-reduction to stay inside uint64.
sizes_st = st.sampled_from([1, 7, 64, 1000, 2**32 + 15, 2**58])


def _scalar_bits(card, keys):
    """The bytes a scalar insertion of ``keys`` into ``card``'s shape sets."""
    hashes = BloomHashes(card.k, card.m, card.seed)
    bits = bytearray((card.m + 7) // 8)
    for key in keys:
        for i in hashes.indices(key):
            bits[i >> 3] |= 1 << (i & 7)
    return bits


def _scalar_missing(card, keys):
    """The keys one of whose scalar probe bits ``card`` leaves clear."""
    hashes = BloomHashes(card.k, card.m, card.seed)
    return [
        key for key in keys
        if not all(card.bits[i >> 3] >> (i & 7) & 1 for i in hashes.indices(key))
    ]


@needs_numpy
@settings(max_examples=200, deadline=None)
@given(
    keys=keys_st,
    k=st.integers(1, 12),
    m=sizes_st,
    seed=st.integers(0, 2**64 - 1),
)
def test_rows_are_the_scalar_indices(keys, k, m, seed):
    hashes = BloomHashes(k, m, seed)
    rows = bloom_index_matrix(hashes, keys)
    assert rows.dtype.name == "uint64" and rows.shape == (len(keys), k)
    assert rows.tolist() == [hashes.indices(x) for x in keys]


@needs_numpy
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_the_edge_keys(seed):
    hashes = BloomHashes(5, 8 * 75, seed)
    keys = [0, 1, 2**63, 2**64 - 1]
    assert bloom_index_matrix(hashes, keys).tolist() == [
        hashes.indices(x) for x in keys
    ]
    # Iterables other than lists are read once, as lists.
    assert bloom_index_matrix(hashes, iter(keys)).tolist() == [
        hashes.indices(x) for x in keys
    ]


@needs_numpy
@pytest.mark.parametrize("bad", [-1, 2**64, 2**80, -(2**70)])
def test_a_key_outside_64_bits_takes_the_scalar_loop(bad):
    hashes = BloomHashes(5, 600, 3)
    assert bloom_index_matrix(hashes, [1, bad, 2]) is None
    card = build_summary("bloom", [1, 2], bits_per_element=300, k_hashes=5, seed=3)
    assert card.m == 600
    assert card.missing_from([1, bad, 2]) == _scalar_missing(card, [1, bad, 2])


def test_no_numpy_empty_keys_and_overflowing_tables_have_no_rows():
    assert bloom_index_matrix(BloomHashes(3, 64, 0), []) is None
    assert bloom_index_matrix(BloomHashes(3, 2**62, 0), [1]) is None
    with mock.patch.object(batch, "_numpy", lambda: None):
        assert bloom_index_matrix(BloomHashes(3, 64, 0), [1]) is None


@pytest.mark.parametrize("numpy_on", [True, False])
@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(st.integers(0, 2**64 - 1), max_size=80),
    probes=st.lists(st.integers(0, 2**64 - 1), max_size=80),
    bits_per_element=st.sampled_from([1, 2, 8]),
    seed=st.integers(0, 2**16),
)
def test_a_card_sets_and_probes_the_scalar_indices(
    numpy_on, members, probes, bits_per_element, seed
):
    keys = members + probes
    gate = batch._numpy if numpy_on else (lambda: None)
    with mock.patch.object(batch, "_numpy", gate):
        card = build_summary(
            "bloom", members, bits_per_element=bits_per_element, seed=seed
        )
        missing = card.missing_from(keys)
    assert card.bits == _scalar_bits(card, members)
    assert missing == _scalar_missing(card, keys)
    assert not set(missing) & set(members)  # no false negatives
