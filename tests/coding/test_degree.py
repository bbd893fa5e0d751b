"""Tests for degree distributions."""

import random

import pytest

from repro.coding import DegreeDistribution


class TestConstruction:
    def test_normalisation(self):
        d = DegreeDistribution({1: 2.0, 2: 2.0})
        assert d.probabilities == (0.5, 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DegreeDistribution({})

    def test_rejects_zero_weights_only(self):
        with pytest.raises(ValueError):
            DegreeDistribution({1: 0.0})

    def test_rejects_degree_below_one(self):
        with pytest.raises(ValueError):
            DegreeDistribution({0: 1.0})

    def test_drops_zero_weight_degrees(self):
        d = DegreeDistribution({1: 1.0, 5: 0.0})
        assert d.degrees == (1,)


class TestSoliton:
    def test_ideal_soliton_sums_to_one(self):
        d = DegreeDistribution.ideal_soliton(100)
        assert sum(d.probabilities) == pytest.approx(1.0)

    def test_ideal_soliton_values(self):
        d = DegreeDistribution.ideal_soliton(10)
        assert d.probability_of(1) == pytest.approx(0.1)
        assert d.probability_of(2) == pytest.approx(0.5 / sum(
            [1 / 10] + [1 / (k * (k - 1)) for k in range(2, 11)]
        ) * 1.0, rel=0.2)

    def test_ideal_soliton_mean_is_harmonic(self):
        # E[d] = H(l) for the ideal soliton.
        import math

        l = 200
        d = DegreeDistribution.ideal_soliton(l)
        h = sum(1 / i for i in range(1, l + 1))
        assert d.mean() == pytest.approx(h, rel=0.01)

    def test_robust_soliton_valid(self):
        d = DegreeDistribution.robust_soliton(1000)
        assert sum(d.probabilities) == pytest.approx(1.0)
        assert d.max_degree() <= 1000

    def test_robust_soliton_has_degree_one_mass(self):
        d = DegreeDistribution.robust_soliton(500)
        assert d.probability_of(1) > 0

    def test_robust_soliton_parameter_validation(self):
        with pytest.raises(ValueError):
            DegreeDistribution.robust_soliton(100, delta=0)
        with pytest.raises(ValueError):
            DegreeDistribution.robust_soliton(100, c=-1)
        with pytest.raises(ValueError):
            DegreeDistribution.robust_soliton(0)


class TestHeavyTailHeuristic:
    def test_average_degree_near_paper_value(self):
        # Section 6.1: average degree ~11 at the paper's scale (~24k
        # blocks).
        d = DegreeDistribution.heavy_tail_heuristic(23_968)
        assert 9 <= d.mean() <= 13.5

    def test_cap_respected(self):
        d = DegreeDistribution.heavy_tail_heuristic(1000, max_degree=50)
        assert d.max_degree() <= 50


class TestRecodingDistributions:
    def test_recoding_soliton_paper_cap(self):
        d = DegreeDistribution.recoding_soliton(10_000)
        assert d.max_degree() <= 50  # Section 6.1: degree limit of 50

    def test_recoding_soliton_tiny_domain(self):
        d = DegreeDistribution.recoding_soliton(1)
        assert d.degrees == (1,)

    def test_truncated_preserves_total_mass(self):
        base = DegreeDistribution.robust_soliton(500)
        t = base.truncated(2, 30)
        assert sum(t.probabilities) == pytest.approx(1.0)
        assert t.degrees[0] >= 2
        assert t.max_degree() <= 30

    def test_truncated_reassigns_mass_to_edges(self):
        base = DegreeDistribution.ideal_soliton(100)
        t = base.truncated(5, 10)
        # All mass below 5 lands on 5.
        below = sum(
            p for d, p in zip(base.degrees, base.probabilities) if d <= 5
        )
        assert t.probability_of(5) == pytest.approx(below)


class TestSampling:
    def test_sample_within_support(self):
        d = DegreeDistribution.robust_soliton(200)
        rng = random.Random(1)
        for _ in range(500):
            s = d.sample(rng)
            assert 1 <= s <= d.max_degree()

    def test_sample_mean_converges(self):
        d = DegreeDistribution.recoding_soliton(20)
        rng = random.Random(2)
        samples = [d.sample(rng) for _ in range(20_000)]
        assert abs(sum(samples) / len(samples) - d.mean()) < 0.2

    def test_fixed_distribution(self):
        d = DegreeDistribution.fixed(7)
        assert d.sample(random.Random(3)) == 7
        assert d.mean() == 7
