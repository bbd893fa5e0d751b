"""Tests for transfer loops, receivers, packets, and scenarios."""

import math
import random

import pytest

from repro.delivery import (
    Packet,
    SimReceiver,
    make_multi_sender_scenario,
    make_pair_scenario,
    make_strategy,
    simulate_multi_sender_transfer,
    simulate_p2p_transfer,
)
from repro.delivery.scenarios import max_pair_correlation
from repro.delivery.transfer import FullSender, TransferResult


class TestPacket:
    def test_exactly_one_kind(self):
        with pytest.raises(ValueError):
            Packet()
        with pytest.raises(ValueError):
            Packet(symbol_id=1, constituent_ids=frozenset([2]))
        with pytest.raises(ValueError):
            Packet.recoded(())

    def test_constructors(self):
        assert not Packet.encoded(5).is_recoded
        assert Packet.recoded(frozenset([1, 2])).is_recoded


class TestSimReceiver:
    def test_counts_distinct_symbols(self):
        r = SimReceiver([1, 2, 3], target=5)
        assert r.receive(Packet.encoded(4)) == [4]
        assert r.receive(Packet.encoded(4)) == []  # duplicate
        assert r.known_count == 4
        assert not r.is_complete
        r.receive(Packet.encoded(5))
        assert r.is_complete

    def test_recoded_resolution(self):
        r = SimReceiver([1], target=3)
        assert r.receive(Packet.recoded(frozenset([1, 2]))) == [2]
        assert r.receive(Packet.recoded(frozenset([2, 3]))) == [3]
        assert r.is_complete

    def test_pending_recoded_tracked(self):
        r = SimReceiver([], target=10)
        r.receive(Packet.recoded(frozenset([5, 6, 7])))
        assert r.pending_recoded == 1
        assert r.useless_packets == 1

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            SimReceiver([], target=0)


class TestFullSender:
    def test_always_fresh(self):
        f = FullSender(1000)
        ids = [f.next_packet().symbol_id for _ in range(10)]
        assert len(set(ids)) == 10


class TestPairScenario:
    def test_layout_invariants(self):
        rng = random.Random(1)
        sc = make_pair_scenario(1000, 1.1, 0.3, rng)
        assert len(sc.receiver) == 550
        assert len(sc.sender) <= 1000
        realised = len(sc.receiver.ids & sc.sender.ids) / len(sc.sender)
        assert abs(realised - 0.3) < 0.02
        assert abs(sc.correlation - realised) < 0.02

    def test_out_of_range_correlation_rejected(self):
        rng = random.Random(2)
        cap = max_pair_correlation(1.1)
        with pytest.raises(ValueError):
            make_pair_scenario(1000, 1.1, cap + 0.05, rng)

    def test_correlation_caps_match_paper_ranges(self):
        # Fig 5(a) x-range tops out near 0.45, Fig 5(b) near 0.25.
        assert max_pair_correlation(1.1) == pytest.approx(0.45, abs=0.01)
        assert max_pair_correlation(1.5) == pytest.approx(0.25, abs=0.01)

    def test_validation(self):
        rng = random.Random(3)
        with pytest.raises(ValueError):
            make_pair_scenario(2, 1.1, 0.0, rng)
        with pytest.raises(ValueError):
            make_pair_scenario(100, 0.9, 0.0, rng)
        with pytest.raises(ValueError):
            make_pair_scenario(100, 1.1, 1.0, rng)


class TestMultiSenderScenario:
    def test_layout_invariants(self):
        rng = random.Random(4)
        sc = make_multi_sender_scenario(1000, 1.1, 0.25, 4, rng)
        sizes = {len(s) for s in sc.senders} | {len(sc.receiver)}
        assert len(sizes) == 1  # equal peer sizes
        # Unique symbols are unique to exactly one peer.
        all_sets = [sc.receiver.ids] + [s.ids for s in sc.senders]
        shared = set.intersection(*all_sets)
        for i, s1 in enumerate(all_sets):
            for s2 in all_sets[i + 1 :]:
                assert s1 & s2 == shared  # pairwise overlap == global core

    def test_reachability_guard(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            # rounding at multiplier 1.0 places fewer distinct symbols
            # across the peers than the receiver's target
            make_multi_sender_scenario(1000, 1.0, 0.9, 2, rng)


class TestP2PTransfer:
    def test_complete_transfer(self):
        rng = random.Random(6)
        sc = make_pair_scenario(300, 1.1, 0.2, rng)
        recv = SimReceiver(sc.receiver.ids, sc.target)
        strat = make_strategy("Recode/BF", sc.sender, sc.receiver, rng,
                              symbols_desired=sc.target - len(sc.receiver))
        res = simulate_p2p_transfer(recv, strat)
        assert res.completed
        assert res.overhead >= 1.0
        assert res.receiver_final_count >= sc.target

    def test_already_complete_receiver(self):
        rng = random.Random(7)
        sc = make_pair_scenario(300, 1.1, 0.0, rng)
        recv = SimReceiver(range(300), 300)
        strat = make_strategy("Random", sc.sender, sc.receiver, rng)
        res = simulate_p2p_transfer(recv, strat)
        assert res.completed and res.packets_sent == 0

    def test_max_packets_cap(self):
        rng = random.Random(8)
        sc = make_pair_scenario(300, 1.1, 0.0, rng)
        recv = SimReceiver(sc.receiver.ids, sc.target)
        strat = make_strategy("Random", sc.sender, sc.receiver, rng)
        res = simulate_p2p_transfer(recv, strat, max_packets=5)
        assert not res.completed
        assert res.packets_sent == 5

    def test_overhead_definition(self):
        rng = random.Random(9)
        sc = make_pair_scenario(300, 1.1, 0.1, rng)
        recv = SimReceiver(sc.receiver.ids, sc.target)
        strat = make_strategy("Recode/BF", sc.sender, sc.receiver, rng,
                              symbols_desired=sc.target - len(sc.receiver))
        res = simulate_p2p_transfer(recv, strat)
        assert res.overhead == pytest.approx(res.packets_sent / res.useful_needed)


class TestMultiSenderTransfer:
    def test_full_sender_alone_is_baseline(self):
        recv = SimReceiver(range(100), 200)
        res = simulate_multi_sender_transfer(recv, [], full_senders=1)
        assert res.completed
        assert res.speedup == pytest.approx(1.0)

    def test_full_plus_partial_speedup_bounded_by_two(self):
        rng = random.Random(10)
        sc = make_pair_scenario(400, 1.5, 0.1, rng)
        recv = SimReceiver(sc.receiver.ids, sc.target)
        desired = int(math.ceil((sc.target - len(sc.receiver)) / 2 * 1.15))
        strat = make_strategy("Recode/BF", sc.sender, sc.receiver, rng,
                              symbols_desired=desired)
        res = simulate_multi_sender_transfer(recv, [strat], full_senders=1)
        assert res.completed
        assert 1.0 <= res.speedup <= 2.05

    def test_no_senders_rejected(self):
        recv = SimReceiver([], 10)
        with pytest.raises(ValueError):
            simulate_multi_sender_transfer(recv, [], full_senders=0)

    def test_parallel_partial_senders_additive(self):
        rng = random.Random(11)
        sc = make_multi_sender_scenario(600, 1.2, 0.0, 4, rng)
        recv = SimReceiver(sc.receiver.ids, sc.target)
        deficit = sc.target - len(sc.receiver)
        strats = [
            make_strategy("Recode/BF", s, sc.receiver, rng,
                          symbols_desired=int(deficit / 4 * 1.2))
            for s in sc.senders
        ]
        res = simulate_multi_sender_transfer(recv, strats)
        assert res.completed
        assert res.speedup > 1.5  # clearly beats a single full sender

    def test_stops_at_the_completing_packet_mid_round(self):
        recv = SimReceiver(range(9), 10)
        res = simulate_multi_sender_transfer(recv, [], full_senders=3)
        assert res.completed
        assert (res.rounds, res.packets_sent, res.receiver_final_count) == (1, 1, 10)

    def test_pending_recodes_do_not_end_a_round_early(self):
        # A packet that recovers nothing cannot complete the receiver,
        # however close it is; the round goes on to the next sender.
        class Blend:
            def next_packet(self):
                return Packet.recoded(frozenset([100, 101]))

        recv = SimReceiver(range(9), 10)
        res = simulate_multi_sender_transfer(recv, [Blend()], full_senders=1)
        assert (res.rounds, res.packets_sent) == (1, 2)
        assert res.completed and recv.pending_recoded == 1

    @pytest.mark.parametrize("cap", [18_000, 40])
    @pytest.mark.parametrize("name", ["Random", "Recode", "Recode/BF"])
    def test_one_sender_rounds_match_the_single_sender_loop(self, name, cap):
        def single_sender_loop(receiver, strategy):
            # The Figure 5 loop as it was written before it became the
            # round-robin loop's one-sender case; kept as the oracle.
            needed = receiver.target - receiver.known_count
            sent = 0
            while not receiver.is_complete and sent < cap:
                receiver.receive(strategy.next_packet())
                sent += 1
            return TransferResult(
                receiver.is_complete, sent, sent, needed, receiver.known_count
            )

        results = []
        for loop in (
            single_sender_loop,
            lambda r, s: simulate_p2p_transfer(r, s, max_packets=cap),
            lambda r, s: simulate_multi_sender_transfer(r, [s], max_rounds=cap),
        ):
            rng = random.Random(12)
            sc = make_pair_scenario(300, 1.1, 0.2, rng)
            recv = SimReceiver(sc.receiver, sc.target)
            strat = make_strategy(name, sc.sender, sc.receiver, rng,
                                  symbols_desired=sc.target - len(sc.receiver))
            results.append(loop(recv, strat))
        assert results[0] == results[1] == results[2]
        assert results[0].completed == (cap != 40)
