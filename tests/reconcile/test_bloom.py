"""Tests for the Bloom filter card (paper Section 5.2, the ``bloom`` kind)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reconcile import (
    SummaryError,
    build_summary,
    false_positive_rate,
    optimal_hash_count,
    summary_from_payload,
)
from repro.reconcile.adapters import BloomSummary


def bloom(ids, **params):
    return build_summary("bloom", ids, **params)


def wire(card):
    return summary_from_payload(json.loads(json.dumps(card.to_payload())))


class TestBloomBasics:
    def test_no_false_negatives(self):
        keys = random.Random(1).sample(range(1 << 30), 2000)
        bf = bloom(keys, bits_per_element=8)
        assert all(bf.may_contain(k) for k in keys)
        assert bf.missing_from(keys) == []

    def test_empty_filter_contains_nothing(self):
        bf = BloomSummary(128, 3)
        assert not bf.may_contain(42)
        assert not any(bf.bits)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BloomSummary(0, 3)
        with pytest.raises(ValueError):
            BloomSummary(10, 0)
        with pytest.raises(SummaryError, match="hash function"):
            bloom([1, 2], k_hashes=0)

    def test_missing_from_yields_only_absent(self):
        keys = set(range(1000, 1500))
        bf = bloom(keys, bits_per_element=10)
        missing = bf.missing_from(range(1000, 1600))
        # Everything reported missing truly is missing (no false negatives
        # means no held symbol is reported absent).
        assert all(m not in keys for m in missing)
        # Most truly-absent candidates are found (FPs may hide a few).
        assert len(missing) > 80

    def test_serialisation_roundtrip(self):
        bf = bloom(range(100), bits_per_element=8, seed=3)
        clone = wire(bf)
        assert (clone.m, clone.k, clone.seed, clone.bits) == (bf.m, bf.k, 3, bf.bits)
        assert all(clone.may_contain(x) for x in range(100))

    def test_payload_length_check(self):
        payload = bloom(range(16)).to_payload()
        payload["bits"] = "00"
        with pytest.raises(SummaryError, match="m_bits"):
            summary_from_payload(payload)

    def test_size_bytes(self):
        bf = BloomSummary(8000, 5)
        assert len(bf.bits) == 1000
        assert bf.wire_bytes() == 4 + 12 + 1000


class TestBloomMath:
    def test_fp_formula_paper_values(self):
        # Section 5.2: 4 bits/elt + 3 hashes -> 14.7%; 8 bits + 5 -> 2.2%.
        assert false_positive_rate(4 * 1000, 1000, 3) == pytest.approx(0.147, abs=0.001)
        assert false_positive_rate(8 * 1000, 1000, 5) == pytest.approx(0.0217, abs=0.001)

    def test_fp_empty_filter(self):
        assert false_positive_rate(100, 0, 3) == 0.0

    def test_fp_invalid(self):
        with pytest.raises(ValueError):
            false_positive_rate(0, 10, 3)
        with pytest.raises(ValueError):
            false_positive_rate(10, 10, 0)

    def test_optimal_hash_count(self):
        # k* = (m/n) ln2: 8 bits/elt -> 5.5 -> 6 or 5 depending on rounding.
        assert optimal_hash_count(8000, 1000) in (5, 6)
        assert optimal_hash_count(1000, 1000) == 1

    def test_optimal_hash_rejects_zero_elements(self):
        with pytest.raises(ValueError):
            optimal_hash_count(100, 0)


class TestBloomEmpirical:
    def test_empirical_fp_matches_formula(self):
        rng = random.Random(9)
        keys = rng.sample(range(1 << 40), 5000)
        bf = bloom(keys, bits_per_element=8, k_hashes=5)
        probes = rng.sample(range(1 << 41, 1 << 42), 20_000)
        fp = 1 - len(bf.missing_from(probes)) / len(probes)
        expected = false_positive_rate(bf.m, 5000, 5)
        assert abs(fp - expected) < 0.01

    def test_paper_sizing_example(self):
        # "using four bits per element, we can create filters for 10,000
        # packets using just 40,000 bits, which can fit into five 1 KB
        # packets."
        bf = bloom(range(10_000), bits_per_element=4, k_hashes=3)
        assert bf.m == 40_000
        assert len(bf.bits) == 5_000  # five 1KB packets


key_sets = st.sets(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300)


class TestBloomProperties:
    @given(keys=key_sets, seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_never_false_negative(self, keys, seed):
        bf = bloom(keys, bits_per_element=6, seed=seed)
        assert all(bf.may_contain(k) for k in keys)

    @given(keys=key_sets)
    @settings(max_examples=30, deadline=None)
    def test_serialisation_preserves_membership(self, keys):
        clone = wire(bloom(keys, bits_per_element=8, seed=7))
        assert all(clone.may_contain(k) for k in keys)
