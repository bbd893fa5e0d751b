"""Tests for min-wise sketches (paper Section 4)."""

import random

import pytest

from repro.hashing.permutations import PermutationFamily
from repro.sketches import MinwiseSketch

UNIVERSE = 1 << 24


def make_family(entries=64, seed=3):
    return PermutationFamily(entries, UNIVERSE, seed=seed)


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
    def test_empty_sketch(self):
        s = MinwiseSketch(make_family())
        assert s.is_empty
        assert all(m is None for m in s.minima)

    def test_add_updates_minima(self):
        fam = make_family(entries=4)
        s = MinwiseSketch(fam)
        s.add(100)
        assert all(m is not None for m in s.minima)
        before = s.minima
        s.add(200)
        after = s.minima
        assert all(b <= a for a, b in zip(before, after))

    def test_key_outside_universe_rejected(self):
        s = MinwiseSketch(make_family())
        with pytest.raises(ValueError):
            s.add(UNIVERSE)

    def test_incremental_equals_batch(self):
        fam = make_family()
        keys = random.Random(1).sample(range(UNIVERSE), 200)
        batch = MinwiseSketch.build(keys, fam)
        inc = MinwiseSketch(fam)
        for k in keys:
            inc.add(k)
        assert batch.minima == inc.minima

    def test_identical_sets_full_match(self):
        fam = make_family()
        keys = random.Random(2).sample(range(UNIVERSE), 100)
        a = MinwiseSketch.build(keys, fam)
        b = MinwiseSketch.build(list(keys), fam)
        assert a.estimate_resemblance(b) == 1.0

    def test_disjoint_sets_near_zero(self):
        fam = make_family(entries=128)
        rng = random.Random(3)
        a = MinwiseSketch.build(rng.sample(range(0, UNIVERSE // 2), 300), fam)
        b = MinwiseSketch.build(
            rng.sample(range(UNIVERSE // 2, UNIVERSE), 300), fam
        )
        assert a.estimate_resemblance(b) < 0.05

    def test_incompatible_families_rejected(self):
        a = MinwiseSketch.build([1, 2], make_family(seed=1))
        b = MinwiseSketch.build([1, 2], make_family(seed=2))
        with pytest.raises(ValueError):
            a.estimate_resemblance(b)

    def test_packet_size_is_1kb_for_128_perms(self):
        fam = PermutationFamily(128, UNIVERSE, seed=0)
        s = MinwiseSketch.build([1, 2, 3], fam)
        assert s.packet_size_bytes() == 1024  # the paper's 1KB calling card


class TestMinwiseAccuracy:
    @pytest.mark.parametrize("resemblance", [0.1, 0.5, 0.9])
    def test_estimate_tracks_truth(self, resemblance):
        fam = make_family(entries=256, seed=11)
        rng = random.Random(int(resemblance * 100))
        errors = []
        for _ in range(5):
            sa, sb = make_sets(resemblance, 400, rng)
            truth = len(sa & sb) / len(sa | sb)
            a = MinwiseSketch.build(sa, fam)
            b = MinwiseSketch.build(sb, fam)
            errors.append(abs(a.estimate_resemblance(b) - truth))
        assert sum(errors) / len(errors) < 0.08

    def test_more_permutations_reduce_error(self):
        rng = random.Random(7)
        errs = {}
        for entries in (16, 256):
            fam = make_family(entries=entries, seed=13)
            total = 0.0
            for t in range(8):
                sa, sb = make_sets(0.5, 300, rng)
                truth = len(sa & sb) / len(sa | sb)
                est = MinwiseSketch.build(sa, fam).estimate_resemblance(
                    MinwiseSketch.build(sb, fam)
                )
                total += abs(est - truth)
            errs[entries] = total / 8
        assert errs[256] < errs[16]


class TestMinwiseUnion:
    def test_union_equals_sketch_of_union(self):
        fam = make_family()
        rng = random.Random(5)
        sa = set(rng.sample(range(UNIVERSE), 150))
        sb = set(rng.sample(range(UNIVERSE), 150))
        a = MinwiseSketch.build(sa, fam)
        b = MinwiseSketch.build(sb, fam)
        assert a.merge(b).minima == MinwiseSketch.build(sa | sb, fam).minima

    def test_third_party_overlap_via_union(self):
        # A receiver can estimate overlap of C against A ∪ B with only
        # the three calling cards (the paper's three-party example).
        fam = make_family(entries=256, seed=17)
        rng = random.Random(6)
        sa = set(rng.sample(range(UNIVERSE), 300))
        sb = set(rng.sample(range(UNIVERSE), 300))
        sc = set(rng.sample(sorted(sa), 150)) | set(rng.sample(range(UNIVERSE), 150))
        union_sketch = MinwiseSketch.build(sa, fam).merge(
            MinwiseSketch.build(sb, fam)
        )
        c = MinwiseSketch.build(sc, fam)
        est = c.estimate_resemblance(union_sketch)
        truth = len(sc & (sa | sb)) / len(sc | sa | sb)
        assert abs(est - truth) < 0.1

    def test_union_with_empty(self):
        fam = make_family()
        a = MinwiseSketch.build([1, 2, 3], fam)
        empty = MinwiseSketch(fam)
        assert a.merge(empty).minima == a.minima


class TestVectorizedBuild:
    def test_matches_scalar_build(self):
        fam = make_family(entries=64, seed=21)
        keys = random.Random(9).sample(range(UNIVERSE), 700)
        scalar = MinwiseSketch.build(keys, fam)
        fast = MinwiseSketch.build_vectorized(keys, fam)
        assert scalar.minima == fast.minima

    def test_empty_set(self):
        fam = make_family()
        s = MinwiseSketch.build_vectorized([], fam)
        assert s.is_empty

    def test_wide_universe_path(self):
        fam = PermutationFamily(16, 1 << 48, seed=2)
        keys = random.Random(3).sample(range(1 << 48), 300)
        assert (
            MinwiseSketch.build_vectorized(keys, fam).minima
            == MinwiseSketch.build(keys, fam).minima
        )

    def test_key_outside_universe_rejected(self):
        fam = make_family()
        with pytest.raises(ValueError):
            MinwiseSketch.build_vectorized([UNIVERSE + 1], fam)

    def test_comparable_with_scalar_sketches(self):
        fam = make_family(entries=128, seed=23)
        rng = random.Random(10)
        a = set(rng.sample(range(UNIVERSE), 400))
        b = set(list(a)[:200]) | set(rng.sample(range(UNIVERSE), 200))
        fast = MinwiseSketch.build_vectorized(a, fam)
        slow = MinwiseSketch.build(b, fam)
        truth = len(a & b) / len(a | b)
        assert abs(fast.estimate_resemblance(slow) - truth) < 0.12


class TestFromMinima:
    def test_roundtrip(self):
        fam = make_family()
        a = MinwiseSketch.build([10, 20, 30], fam)
        b = MinwiseSketch.from_minima(fam, a.minima)
        assert a.estimate_resemblance(b) == 1.0

    def test_length_check(self):
        fam = make_family()
        with pytest.raises(ValueError):
            MinwiseSketch.from_minima(fam, [1, 2, 3])

    def test_two_reconstructed_cards_of_one_set_resemble_fully(self):
        # Regression: emptiness was read off a fold counter that wire
        # reconstruction left at 0, so two wire-side cards of the same
        # set both looked empty and estimated 0.0.
        fam = make_family()
        built = MinwiseSketch.build([10, 20, 30], fam)
        left = MinwiseSketch.from_minima(fam, built.minima)
        right = MinwiseSketch.from_minima(fam, built.minima)
        assert not left.is_empty
        assert built.estimate_resemblance(left) == 1.0
        assert left.estimate_resemblance(right) == 1.0

    def test_reconstructed_empty_vector_is_still_empty(self):
        fam = make_family()
        blank = MinwiseSketch.from_minima(fam, [None] * len(fam))
        assert blank.is_empty
        assert blank.estimate_resemblance(MinwiseSketch(fam)) == 0.0
