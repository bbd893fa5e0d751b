"""Statistical validation of the estimators the paper relies on.

These tests run many independent trials and check means/variances
against theory — catching subtle bias bugs that single-shot accuracy
tests cannot (e.g. a permutation family that is not quite min-wise
independent, or a sampler that over-weights small keys).
"""

import math
import random

import pytest

from repro.reconcile import build_summary

UNIVERSE = 1 << 24


def _resemblance(a, b, entries, seed):
    """The min-wise card's estimate for ``a`` against ``b``."""
    card_a, card_b = (
        build_summary("minwise", ids, entries=entries, universe=UNIVERSE, seed=seed)
        for ids in (a, b)
    )
    return card_a.estimate_resemblance(card_b)


def _pair_with_resemblance(resemblance, size, rng):
    inter = int(resemblance * size)
    extra = size - inter
    pool = rng.sample(range(UNIVERSE), inter + 2 * extra)
    common = pool[:inter]
    a = set(common + pool[inter : inter + extra])
    b = set(common + pool[inter + extra :])
    return a, b


class TestMinwiseStatistics:
    def test_estimator_mean_unbiased(self):
        """Mean of many estimates converges to true resemblance."""
        rng = random.Random(1)
        target = 0.4
        estimates = []
        for trial in range(20):
            a, b = _pair_with_resemblance(target, 300, rng)
            truth = len(a & b) / len(a | b)
            est = _resemblance(a, b, 64, 1000 + trial)
            estimates.append(est - truth)
        bias = sum(estimates) / len(estimates)
        # Linear permutations are only approximately min-wise independent
        # (Broder et al.); the residual bias must stay small.
        assert abs(bias) < 0.04

    def test_estimator_variance_binomial(self):
        """Per-position matches are Bernoulli(r): variance ~ r(1-r)/k."""
        rng = random.Random(2)
        k = 128
        r_target = 0.5
        sq_errs = []
        for trial in range(25):
            a, b = _pair_with_resemblance(r_target, 256, rng)
            truth = len(a & b) / len(a | b)
            est = _resemblance(a, b, k, 2000 + trial)
            sq_errs.append((est - truth) ** 2)
        measured_var = sum(sq_errs) / len(sq_errs)
        theory_var = r_target * (1 - r_target) / k
        # Within a factor of ~3 of the binomial prediction (linear
        # permutations add correlation between positions).
        assert measured_var < 3 * theory_var + 1e-4

    def test_error_scales_inverse_sqrt_k(self):
        rng = random.Random(3)
        rmse = {}
        for k in (32, 512):
            errs = []
            for trial in range(12):
                a, b = _pair_with_resemblance(0.5, 256, rng)
                truth = len(a & b) / len(a | b)
                est = _resemblance(a, b, k, 3000 + 31 * trial + k)
                errs.append((est - truth) ** 2)
            rmse[k] = math.sqrt(sum(errs) / len(errs))
        # 16x more permutations -> ~4x lower RMSE; accept >= 2x.
        assert rmse[512] < rmse[32] / 2


class TestRandomSampleStatistics:
    def test_hit_count_binomial_mean_and_spread(self):
        """|sample ∩ B| ~ Binomial(k, c): check mean and a CLT band."""
        rng = random.Random(4)
        c_true = 0.3
        size = 2000
        overlap = int(c_true * size)
        pool = rng.sample(range(UNIVERSE), 2 * size - overlap)
        sketched = set(pool[:size])
        other = set(pool[size - overlap :])
        truth = len(sketched & other) / len(sketched)
        k = 128
        estimates = []
        for _ in range(40):
            drawn = build_summary(
                "random_sample", sketched, k=k, seed=rng.randrange(1 << 32)
            ).sample
            estimates.append(sum(1 for key in drawn if key in other) / k)
        mean = sum(estimates) / len(estimates)
        se = math.sqrt(truth * (1 - truth) / k / len(estimates))
        assert abs(mean - truth) < 4 * se + 0.01
