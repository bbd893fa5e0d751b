"""Tests for the min-wise calling card (paper Section 4, the ``minwise`` kind)."""

import random

import pytest

import repro.hashing.batch as batch
from repro.hashing.permutations import PermutationFamily
from repro.reconcile import SummaryError, build_summary

UNIVERSE = 1 << 24


def card(ids, entries=64, seed=3):
    return build_summary("minwise", ids, entries=entries, universe=UNIVERSE, seed=seed)


def make_sets(resemblance, size, rng):
    """Two sets with |A ∩ B| / |A ∪ B| ≈ resemblance."""
    inter = int(resemblance * size)
    extra = size - inter
    pool = rng.sample(range(UNIVERSE), inter + 2 * extra)
    common = pool[:inter]
    return set(common + pool[inter : inter + extra]), set(
        common + pool[inter + extra :]
    )


class TestMinwiseBasics:
    def test_empty_card(self):
        assert all(m is None for m in card([]).minima)

    def test_absorb_lowers_minima(self):
        s = card([100], entries=4)
        assert all(m is not None for m in s.minima)
        after = s.absorb([200])
        assert all(b <= a for a, b in zip(s.minima, after.minima))

    def test_key_outside_universe_folds(self):
        """An id past the universe is folded ``% universe``, not refused."""
        assert card([]).absorb([UNIVERSE + 5]).minima == card([5]).minima

    def test_incremental_equals_batch(self):
        keys = random.Random(1).sample(range(UNIVERSE), 200)
        inc = card([])
        for k in keys:
            inc = inc.absorb([k])
        assert inc.minima == card(keys).minima
        assert inc.set_size == len(keys)

    def test_identical_sets_full_match(self):
        keys = random.Random(2).sample(range(UNIVERSE), 100)
        assert card(keys).estimate_resemblance(card(list(keys))) == 1.0

    def test_disjoint_sets_near_zero(self):
        rng = random.Random(3)
        a = card(rng.sample(range(0, UNIVERSE // 2), 300), entries=128)
        b = card(rng.sample(range(UNIVERSE // 2, UNIVERSE), 300), entries=128)
        assert a.estimate_resemblance(b) < 0.05

    def test_incompatible_families_rejected(self):
        assert card([1, 2], seed=1).estimate_resemblance(card([1, 2], seed=1)) == 1.0
        with pytest.raises(SummaryError, match="family"):
            card([1, 2], seed=1).estimate_resemblance(card([1, 2], seed=2))
        with pytest.raises(SummaryError, match="family"):
            card([1, 2], entries=8).merge(card([1, 2], entries=9))

    def test_minima_are_1kb_for_128_perms(self):
        s = card([1, 2, 3], entries=128)
        assert 8 * len(s.minima) == 1024  # the paper's 1KB calling card
        assert s.wire_bytes() == 4 + 1024  # behind the set-size header


class TestMinwiseAccuracy:
    @pytest.mark.parametrize("resemblance", [0.1, 0.5, 0.9])
    def test_estimate_tracks_truth(self, resemblance):
        rng = random.Random(int(resemblance * 100))
        errors = []
        for _ in range(5):
            sa, sb = make_sets(resemblance, 400, rng)
            truth = len(sa & sb) / len(sa | sb)
            a = card(sa, entries=256, seed=11)
            b = card(sb, entries=256, seed=11)
            errors.append(abs(a.estimate_resemblance(b) - truth))
        assert sum(errors) / len(errors) < 0.08

    def test_more_permutations_reduce_error(self):
        rng = random.Random(7)
        errs = {}
        for entries in (16, 256):
            total = 0.0
            for t in range(8):
                sa, sb = make_sets(0.5, 300, rng)
                truth = len(sa & sb) / len(sa | sb)
                est = card(sa, entries, 13).estimate_resemblance(card(sb, entries, 13))
                total += abs(est - truth)
            errs[entries] = total / 8
        assert errs[256] < errs[16]


class TestMinwiseUnion:
    def test_union_equals_card_of_union(self):
        rng = random.Random(5)
        sa = set(rng.sample(range(UNIVERSE), 150))
        sb = set(rng.sample(range(UNIVERSE), 150))
        assert card(sa).merge(card(sb)).minima == card(sa | sb).minima

    def test_third_party_overlap_via_union(self):
        # A receiver can estimate overlap of C against A ∪ B with only
        # the three calling cards (the paper's three-party example).
        rng = random.Random(6)
        sa = set(rng.sample(range(UNIVERSE), 300))
        sb = set(rng.sample(range(UNIVERSE), 300))
        sc = set(rng.sample(sorted(sa), 150)) | set(rng.sample(range(UNIVERSE), 150))
        union_card = card(sa, 256, 17).merge(card(sb, 256, 17))
        est = card(sc, 256, 17).estimate_resemblance(union_card)
        truth = len(sc & (sa | sb)) / len(sc | sa | sb)
        assert abs(est - truth) < 0.1

    def test_union_with_empty(self):
        a = card([1, 2, 3])
        assert a.merge(card([])).minima == a.minima


@pytest.fixture
def scalar(monkeypatch):
    """Build cards on the scalar path: numpy blocked."""

    def build(ids, **params):
        with monkeypatch.context() as patch:
            patch.setattr(batch, "_numpy", lambda: None)
            return card(ids, **params)

    return build


class TestNumpyLane:
    """The card's numpy build and its scalar fallback hold the same
    minima, the reference ``min_over`` of each permutation."""

    def test_matches_scalar_build(self, scalar):
        keys = random.Random(9).sample(range(UNIVERSE), 700)
        family = PermutationFamily(64, UNIVERSE, seed=21)
        fast = card(keys, entries=64, seed=21)
        assert fast.minima == scalar(keys, entries=64, seed=21).minima
        assert fast.minima == [perm.min_over(sorted(keys)) for perm in family]

    def test_empty_set(self, scalar):
        assert all(m is None for m in scalar([]).minima)
        assert scalar([]).minima == card([]).minima

    def test_wide_universe_path(self):
        keys = random.Random(3).sample(range(1 << 48), 300)
        wide = build_summary("minwise", keys, entries=16, universe=1 << 48, seed=2)
        family = PermutationFamily(16, 1 << 48, seed=2)
        assert wide.minima == [perm.min_over(sorted(keys)) for perm in family]

    def test_key_outside_universe_folds(self, scalar):
        assert card([UNIVERSE + 1]).minima == card([1]).minima
        assert scalar([UNIVERSE + 1]).minima == card([1]).minima

    def test_comparable_with_scalar_cards(self, scalar):
        rng = random.Random(10)
        a = set(rng.sample(range(UNIVERSE), 400))
        b = set(list(a)[:200]) | set(rng.sample(range(UNIVERSE), 200))
        fast = card(a, entries=128, seed=23)
        slow = scalar(b, entries=128, seed=23)
        truth = len(a & b) / len(a | b)
        assert abs(fast.estimate_resemblance(slow) - truth) < 0.12
