"""Tests for the five Section 6.2 sender strategies."""

import random

import pytest

from repro.delivery import (
    STRATEGY_NAMES,
    RandomStrategy,
    RandomSummaryStrategy,
    RecodeMWStrategy,
    RecodeStrategy,
    RecodeSummaryStrategy,
    WorkingSet,
    make_strategy,
)


def bloom_useful(sender, receiver, bits_per_element=8):
    """The sender ids a Bloom summary of ``receiver`` lets through."""
    remote = receiver.summary("bloom", bits_per_element=bits_per_element)
    return remote.missing_from(list(sender))


def sets_with_overlap(sender_size=300, overlap=100, seed=1):
    rng = random.Random(seed)
    pool = rng.sample(range(1 << 30), 2 * sender_size - overlap)
    sender = WorkingSet(pool[:sender_size])
    receiver = WorkingSet(pool[sender_size - overlap :])
    return sender, receiver, rng


class TestRandomStrategy:
    def test_packets_from_working_set(self):
        sender, _, rng = sets_with_overlap()
        s = RandomStrategy(sender, rng)
        for _ in range(50):
            p = s.next_packet()
            assert not p.is_recoded
            assert p.symbol_id in sender

    def test_empty_working_set_rejected(self):
        with pytest.raises(ValueError):
            RandomStrategy(WorkingSet())

    def test_with_replacement(self):
        # Stateless senders may repeat symbols (Section 2.2).
        sender = WorkingSet([1, 2, 3])
        s = RandomStrategy(sender, random.Random(2))
        ids = [s.next_packet().symbol_id for _ in range(30)]
        assert len(set(ids)) <= 3
        assert len(ids) == 30


class TestRandomBF:
    def test_filtered_pool_excludes_receiver_symbols(self):
        sender, receiver, rng = sets_with_overlap()
        s = RandomSummaryStrategy(sender, bloom_useful(sender, receiver, 10), rng)
        for _ in range(100):
            p = s.next_packet()
            # Guarantee: never sends a symbol the receiver definitely has
            # (Bloom has no false negatives, so receiver ids always hit).
            assert p.symbol_id not in receiver

    def test_filtered_out_counter(self):
        sender, receiver, rng = sets_with_overlap(overlap=150)
        s = RandomSummaryStrategy(sender, bloom_useful(sender, receiver), rng)
        assert s.filtered_out >= 150  # overlap + any false positives

    def test_identical_sets_fall_back_to_random(self):
        ws = WorkingSet(range(100))
        s = RandomSummaryStrategy(ws, bloom_useful(ws, ws), random.Random(3))
        p = s.next_packet()  # must not stall or raise
        assert p.symbol_id in ws


class TestRecodeStrategies:
    def test_recode_blends_held_symbols(self):
        sender, _, rng = sets_with_overlap()
        s = RecodeStrategy(sender, rng)
        for _ in range(50):
            p = s.next_packet()
            assert p.is_recoded
            assert p.constituent_ids <= sender.ids

    def test_recode_bf_domain_excludes_receiver(self):
        sender, receiver, rng = sets_with_overlap()
        s = RecodeSummaryStrategy(sender, bloom_useful(sender, receiver), rng=rng)
        for _ in range(50):
            p = s.next_packet()
            assert all(i not in receiver for i in p.constituent_ids)

    def test_recode_bf_domain_limit(self):
        sender, receiver, rng = sets_with_overlap()
        s = RecodeSummaryStrategy(
            sender, bloom_useful(sender, receiver), symbols_desired=50, rng=rng
        )
        domain = set()
        for _ in range(300):
            domain |= s.next_packet().constituent_ids
        assert len(domain) <= 50

    def test_recode_mw_degrees_grow_with_correlation(self):
        sender, _, rng = sets_with_overlap(sender_size=400)
        low = RecodeMWStrategy(sender, 0.1, random.Random(5))
        high = RecodeMWStrategy(sender, 0.8, random.Random(5))
        deg_low = sum(len(low.next_packet().constituent_ids) for _ in range(200))
        deg_high = sum(len(high.next_packet().constituent_ids) for _ in range(200))
        assert deg_high > deg_low

    def test_recode_mw_invalid_correlation(self):
        sender, _, _ = sets_with_overlap()
        with pytest.raises(ValueError):
            RecodeMWStrategy(sender, 1.5)

    def test_degree_cap_50(self):
        sender, _, rng = sets_with_overlap(sender_size=500)
        s = RecodeMWStrategy(sender, 0.95, rng)
        assert all(len(s.next_packet().constituent_ids) <= 50 for _ in range(100))


class TestFactory:
    def test_all_names_constructible(self):
        # The informed strategies are labelled by the summary kind they
        # reconciled through — here the default policy's Bloom filter.
        labels = {
            "Random/BF": "Random/bloom",
            "Recode/BF": "Recode/bloom",
            "Recode/MW": "Recode/bloom-est",
        }
        sender, receiver, rng = sets_with_overlap()
        for name in STRATEGY_NAMES:
            s = make_strategy(name, sender, receiver, rng)
            assert s.name == labels.get(name, name)
            s.next_packet()

    def test_unknown_name_rejected(self):
        sender, receiver, rng = sets_with_overlap()
        with pytest.raises(ValueError):
            make_strategy("Telepathy", sender, receiver, rng)

    def test_mw_uses_provided_estimate(self):
        sender, receiver, rng = sets_with_overlap()
        s = make_strategy(
            "Recode/MW", sender, receiver, rng, correlation_estimate=0.42
        )
        assert s.estimated_correlation == 0.42


class TestPolicyFactory:
    """make_strategy(summary_policy=...) — the generic reconciliation path."""

    def test_mw_with_undersized_cpi_bound_degrades(self):
        from repro.reconcile import SummaryPolicy

        sender, receiver, rng = sets_with_overlap()
        policy = SummaryPolicy(kind="cpi", params={"max_discrepancy": 2})
        s = make_strategy("Recode/MW", sender, receiver, rng, summary_policy=policy)
        # Bound exceeded reads as low overlap, never as a crash.
        assert s.estimated_correlation == 0.0
        s.next_packet()

    def test_bf_names_with_every_capability_class(self):
        from repro.reconcile import SummaryPolicy

        sender, receiver, rng = sets_with_overlap()
        for kind, expect in [
            ("bloom", "Recode/bloom"),        # searchable
            ("minwise", "Recode/minwise-est"),  # estimate-only
            ("cpi", "Recode/cpi-blind"),      # bound (2) exceeded -> blind
        ]:
            policy = SummaryPolicy(kind=kind, params={"max_discrepancy": 2} if kind == "cpi" else {})
            s = make_strategy("Recode/BF", sender, receiver, rng, summary_policy=policy)
            assert s.name == expect
            s.next_packet()

    def test_unchanged_receiver_set_is_summarised_once(self, monkeypatch):
        from repro.reconcile import SummaryPolicy
        from repro.reconcile.adapters import BloomSummary

        builds = []
        orig = BloomSummary.build.__func__

        def spy(cls, ids, **params):
            builds.append(ids)
            return orig(cls, ids, **params)

        monkeypatch.setattr(BloomSummary, "build", classmethod(spy))
        sender, receiver, rng = sets_with_overlap()
        policy = SummaryPolicy(kind="bloom")
        s1 = make_strategy("Recode/BF", sender, receiver, rng, summary_policy=policy)
        s2 = make_strategy("Recode/BF", sender, receiver, rng, summary_policy=policy)
        # Both senders read the receiver set's one cached summary.
        assert len(builds) == 1
        assert sorted(s1._domain) == sorted(s2._domain)
        # ...until the receiver's set changes.
        receiver.add(max(sender) + 1)
        make_strategy("Recode/BF", sender, receiver, rng, summary_policy=policy)
        assert policy.summary_of(receiver).may_contain(max(sender) + 1)
