"""Tests for sketch-driven sender selection and load balancing.

The orchestrator asks a calling card for ``estimate_resemblance`` and
``merge`` only; every test runs over the registered min-wise
``Summary`` the overlay publishes, in each of three lanes: as built, on
the scalar path with numpy blocked (build and selection both), and as a
receiver holds it — decoded from its JSON payload.
"""

import json
import random

import pytest

import repro.hashing.batch as batch
from repro.delivery.orchestrator import (
    CandidateSender,
    group_identical_senders,
    select_senders,
    split_demand,
)
from repro.reconcile import build_summary, summary_from_payload

UNIVERSE = 1 << 32
ENTRIES, SEED = 192, 55
LANES = ["summary", "numpy-blocked", "wire"]


def _built(ids):
    return build_summary("minwise", ids, entries=ENTRIES, universe=UNIVERSE, seed=SEED)


def _wire(ids):
    return summary_from_payload(json.loads(json.dumps(_built(ids).to_payload())))


def _lane(name, monkeypatch):
    """ids -> calling card in lane ``name``; blocks numpy for that lane."""
    if name == "numpy-blocked":
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    return _wire if name == "wire" else _built


@pytest.fixture(params=LANES)
def card(request, monkeypatch):
    """ids -> calling card, once per lane."""
    return _lane(request.param, monkeypatch)


def candidate(peer_id, ids, card):
    return CandidateSender(peer_id, card(ids), len(set(ids)))


class TestSelectSenders:
    def _receiver(self, ids, card):
        return card(ids), len(set(ids))

    def test_prefers_complementary_content(self, card):
        rng = random.Random(2)
        receiver_ids = set(rng.sample(range(0, 1 << 20), 800))
        sketch, size = self._receiver(receiver_ids, card)
        # c_same mostly overlaps receiver; c_new is disjoint.
        c_same = candidate(
            "same", list(receiver_ids)[:700] + rng.sample(range(1 << 21, 1 << 22), 100),
            card,
        )
        c_new = candidate("new", rng.sample(range(1 << 22, 1 << 23), 800), card)
        result = select_senders(sketch, size, [c_same, c_new], max_senders=1)
        assert result.chosen == ["new"]

    def test_rejects_identical_candidates(self, card):
        rng = random.Random(3)
        ids = rng.sample(range(UNIVERSE), 600)
        sketch, size = self._receiver(ids, card)
        twin = candidate("twin", ids, card)
        result = select_senders(sketch, size, [twin], max_senders=2)
        assert result.chosen == []
        assert result.rejected_identical == ["twin"]

    def test_greedy_covers_complementary_pair(self, card):
        rng = random.Random(4)
        receiver_ids = rng.sample(range(0, 1 << 18), 400)
        sketch, size = self._receiver(receiver_ids, card)
        half1 = candidate("h1", rng.sample(range(1 << 20, 1 << 21), 500), card)
        half2 = candidate("h2", rng.sample(range(1 << 22, 1 << 23), 500), card)
        # A near-duplicate of h1 that offers nothing extra once h1 chosen.
        dup = CandidateSender("dup", half1.card, half1.set_size)
        result = select_senders(sketch, size, [half1, dup, half2], max_senders=2)
        assert set(result.chosen) == {"h1", "h2"} or set(result.chosen) == {"dup", "h2"}
        # Coverage estimate approaches the true union.
        assert result.estimated_coverage == pytest.approx(1400, rel=0.1)

    def test_min_gain_stops_early(self, card):
        rng = random.Random(5)
        receiver_ids = rng.sample(range(UNIVERSE), 500)
        sketch, size = self._receiver(receiver_ids, card)
        tiny = candidate("tiny", list(receiver_ids)[:499], card)
        result = select_senders(sketch, size, [tiny], max_senders=3, min_gain=5.0)
        assert result.chosen == []

    def test_zero_slots(self, card):
        sketch = card(range(100))
        result = select_senders(sketch, 100, [], max_senders=0)
        assert result.chosen == []

    def test_negative_slots_rejected(self, card):
        sketch = card(range(10))
        with pytest.raises(ValueError):
            select_senders(sketch, 10, [], max_senders=-1)


class TestGrouping:
    def test_identical_sets_grouped(self, card):
        rng = random.Random(6)
        ids_a = rng.sample(range(UNIVERSE), 400)
        ids_b = rng.sample(range(UNIVERSE), 400)
        cands = [
            candidate("a1", ids_a, card),
            candidate("a2", ids_a, card),
            candidate("b1", ids_b, card),
        ]
        groups = {frozenset(g) for g in group_identical_senders(cands)}
        assert frozenset({"a1", "a2"}) in groups
        assert frozenset({"b1"}) in groups

    def test_distinct_sets_not_grouped(self, card):
        rng = random.Random(7)
        cands = [
            candidate(f"p{i}", rng.sample(range(UNIVERSE), 300), card)
            for i in range(4)
        ]
        groups = group_identical_senders(cands)
        assert len(groups) == 4


class TestMixedPool:
    def test_selection_and_grouping_over_a_mixed_pool(self, card):
        rng = random.Random(8)
        receiver_ids = rng.sample(range(0, 1 << 18), 400)
        pools = {
            "overlap": receiver_ids[:300] + rng.sample(range(1 << 20, 1 << 21), 200),
            "h1": rng.sample(range(1 << 21, 1 << 22), 500),
            "h2": rng.sample(range(1 << 22, 1 << 23), 500),
            "twin": list(receiver_ids),
        }
        pools["h1-replica"] = list(pools["h1"])
        cands = [candidate(pid, ids, card) for pid, ids in pools.items()]
        selection = select_senders(
            card(receiver_ids), len(receiver_ids), cands, max_senders=3
        )
        assert selection.rejected_identical == ["twin"]
        assert len(selection.chosen) == 3
        assert frozenset({"h1", "h1-replica"}) in {
            frozenset(g) for g in group_identical_senders(cands)
        }


class TestOneCardSurface:
    """Every lane publishes the same minima, so every decision made from
    them is the same decision — to the float."""

    def test_selection_and_grouping_equal_across_card_types(self, monkeypatch):
        rng = random.Random(8)
        receiver_ids = rng.sample(range(0, 1 << 18), 400)
        pools = {
            "overlap": receiver_ids[:300] + rng.sample(range(1 << 20, 1 << 21), 200),
            "h1": rng.sample(range(1 << 21, 1 << 22), 500),
            "h2": rng.sample(range(1 << 22, 1 << 23), 500),
            "twin": list(receiver_ids),
        }
        pools["h1-replica"] = list(pools["h1"])
        outcomes = []
        for name in LANES:
            with monkeypatch.context() as patch:
                make = _lane(name, patch)
                cands = [candidate(pid, ids, make) for pid, ids in pools.items()]
                selection = select_senders(
                    make(receiver_ids), len(receiver_ids), cands, max_senders=3
                )
                outcomes.append((selection, group_identical_senders(cands)))
        first = outcomes[0]
        assert all(outcome == first for outcome in outcomes[1:])
        assert first[0].rejected_identical == ["twin"]
        assert len(first[0].chosen) == 3


class TestSplitDemand:
    def test_total_conserved(self):
        groups = [["a", "b"], ["c"], ["d", "e", "f"]]
        alloc = split_demand(100, groups, rng=random.Random(1))
        assert sum(alloc.values()) == 100
        assert set(alloc) == {"a", "b", "c", "d", "e", "f"}

    def test_even_within_group(self):
        alloc = split_demand(90, [["a", "b", "c"]], rng=random.Random(2))
        assert all(v == 30 for v in alloc.values())

    def test_even_across_groups(self):
        alloc = split_demand(60, [["a"], ["b"], ["c"]], rng=random.Random(3))
        assert all(v == 20 for v in alloc.values())

    def test_empty_groups(self):
        assert split_demand(10, [], random.Random(0)) == {}

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            split_demand(-1, [["a"]], random.Random(0))
