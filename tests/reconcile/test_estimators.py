"""Tests for the resemblance/containment conversions beside the min-wise card."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reconcile import (
    containment_from_resemblance,
    intersection_from_resemblance,
)


class TestConversions:
    def test_exact_identity_case(self):
        # A == B: r = 1, containment = 1.
        assert containment_from_resemblance(1.0, 100, 100) == 1.0

    def test_disjoint_case(self):
        assert containment_from_resemblance(0.0, 100, 100) == 0.0
        assert intersection_from_resemblance(0.0, 100, 100) == 0.0

    def test_known_algebra(self):
        # |A| = |B| = 100, |A ∩ B| = 50 -> union 150, r = 1/3, c = 0.5.
        r = 50 / 150
        assert intersection_from_resemblance(r, 100, 100) == pytest.approx(50)
        assert containment_from_resemblance(r, 100, 100) == pytest.approx(0.5)

    def test_empty_b(self):
        assert containment_from_resemblance(0.0, 10, 0) == 0.0

    def test_invalid_resemblance_rejected(self):
        with pytest.raises(ValueError):
            containment_from_resemblance(1.5, 10, 10)
        with pytest.raises(ValueError):
            containment_from_resemblance(-0.1, 10, 10)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            containment_from_resemblance(0.5, -1, 10)


class TestRoundTrip:
    @given(
        inter=st.integers(min_value=0, max_value=500),
        extra_a=st.integers(min_value=0, max_value=500),
        extra_b=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_through_true_sets(self, inter, extra_a, extra_b):
        size_a = inter + extra_a
        size_b = inter + extra_b
        union = inter + extra_a + extra_b
        if union == 0:
            return
        r = inter / union
        c = inter / size_b
        assert containment_from_resemblance(r, size_a, size_b) == pytest.approx(
            c, abs=1e-9
        )
