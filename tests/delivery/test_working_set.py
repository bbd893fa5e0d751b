"""Tests for working sets and their calling cards."""

import random

import pytest

from repro.delivery import WorkingSet


class TestWorkingSetBasics:
    def test_add_and_contains(self):
        ws = WorkingSet([1, 2, 3])
        assert ws.add(4)
        assert not ws.add(4)  # duplicate
        assert 4 in ws
        assert len(ws) == 4

    def test_ids_returns_copy(self):
        ws = WorkingSet([1, 2])
        ids = ws.ids
        ids.add(3)
        assert 3 not in ws


class TestGroundTruthRelations:
    """The set relations a working set answers (``frozenset & ws``,
    ``frozenset - ws``) against plain-set oracles."""

    def test_containment(self):
        a = WorkingSet([1, 2, 3, 4])
        b = WorkingSet([3, 4, 5, 6])
        shared = frozenset(a) & b
        assert shared == {1, 2, 3, 4} & {3, 4, 5, 6}
        assert len(shared) / len(a) == 0.5

    def test_containment_empty_self(self):
        assert frozenset(WorkingSet()) & WorkingSet([1]) == set() & {1}

    def test_resemblance(self):
        a = WorkingSet([1, 2, 3])
        b = WorkingSet([2, 3, 4])
        assert a.resemblance_with(b) == pytest.approx(2 / 4)

    def test_resemblance_both_empty(self):
        assert WorkingSet().resemblance_with(WorkingSet()) == 0.0

    def test_difference_is_a_new_set(self):
        a = WorkingSet([1, 2, 3, 4])
        b = WorkingSet([3, 4, 5])
        only_a = set(frozenset(a) - b)
        assert only_a == {1, 2, 3, 4} - {3, 4, 5}
        only_a.add(9)
        assert 9 not in a and len(a) == 4
        assert frozenset(WorkingSet()) - a == set()


class TestCallingCards:
    """Every summary goes through the one ``ws.summary(kind, ...)`` surface."""

    def test_minwise_sketch_estimates(self):
        rng = random.Random(1)
        shared = rng.sample(range(1 << 30), 500)
        a = WorkingSet(shared + rng.sample(range(1 << 31, 1 << 32), 500))
        b = WorkingSet(shared + rng.sample(range(1 << 30, 1 << 31), 500))
        card_a, card_b = (ws.summary("minwise", entries=128, seed=5) for ws in (a, b))
        est = card_a.estimate_resemblance(card_b)
        assert abs(est - a.resemblance_with(b)) < 0.1

    def test_bloom_summary_membership(self):
        ws = WorkingSet(range(500))
        bf = ws.summary("bloom")
        assert all(bf.may_contain(x) for x in range(500))

    def test_art_roundtrip(self):
        rng = random.Random(2)
        a = WorkingSet(rng.sample(range(1 << 30), 400))
        b = WorkingSet(list(a.ids)[:350] + rng.sample(range(1 << 31, 1 << 32), 50))
        art_a = a.summary("art", seed=3, correction=4)
        assert set(art_a.missing_from(b)) <= b.ids - a.ids

    def test_sample_sketches(self):
        ws = WorkingSet(range(1000))
        assert len(ws.summary("random_sample", k=64, seed=1).sample) == 64
        mk = ws.summary("modk", modulus=10)
        assert 50 <= len(mk.sample) <= 200
