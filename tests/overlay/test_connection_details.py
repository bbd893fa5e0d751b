"""Edge-path tests: fractional bandwidth, reports, strategy refresh."""

import random

import pytest

from repro.overlay import (
    OverlayNode,
    OverlaySimulator,
    SimulationReport,
)
from repro.overlay.simulator import Connection
from repro.sim.links import drain_credit


def _ticks(bandwidth, n):
    """Whole packets per tick when ``bandwidth`` is drained ``n`` times."""
    sent, credit = [], 0.0
    for _ in range(n):
        whole, credit = drain_credit(credit, bandwidth)
        assert credit >= 0.0
        sent.append(whole)
    return sent


class TestFractionalBandwidth:
    """``repro.sim.links.drain_credit`` is the one fractional-bandwidth
    rule (links and pacing both charge through it); these sequences pin
    it directly."""

    def test_credit_accumulates(self):
        sent = _ticks(0.5, 10)
        assert sum(sent) == 5  # 0.5 pkt/tick over 10 ticks
        assert max(sent) == 1

    def test_integral_bandwidth(self):
        assert _ticks(3.0, 1) == [3]

    def _conn(self, bandwidth):
        return Connection(
            sender=OverlayNode("s", 10, is_source=True),
            receiver=OverlayNode("r", 10),
            strategy=None, bandwidth=bandwidth, loss_rate=0.0,
            established_tick=0,
        )

    def test_credit_sequence_pinned(self):
        # The exact credit sequence for bandwidth 0.3: one packet on
        # every third tick, exactly periodic (no float drift, no RNG).
        assert _ticks(0.3, 12) == [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0]

    def test_credit_sequence_survives_float_representation(self):
        # 0.1 is inexact in binary; ten ticks must still yield exactly
        # one packet (the epsilon floor), and 1000 ticks exactly 100.
        seq = _ticks(0.1, 1000)
        assert seq[9] == 1 and sum(seq[:10]) == 1
        assert sum(seq) == 100

    def test_credit_is_deterministic_and_rng_free(self):
        import random as _random

        state_before = _random.getstate()
        assert _ticks(0.7, 10) == _ticks(0.7, 10) == [0, 1, 1, 0, 1, 1, 0, 1, 1, 1]
        assert _random.getstate() == state_before  # no global RNG use

    def test_credit_cannot_drift_negative(self):
        assert _ticks(0.0, 50) == [0] * 50  # _ticks checks the credit

    def test_a_connection_link_charges_by_the_same_rule(self):
        conn = self._conn(0.5)
        assert conn.link.packet_budget(0.0, 4.0) == 2

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            self._conn(-1.0)

    def test_replacing_link_ends_auto_coupling(self):
        from repro.sim import GilbertElliottLink

        conn = self._conn(2.0)
        conn.link = GilbertElliottLink(3.0)
        conn.loss_rate = 0.2  # must not try to steer the custom link
        assert conn.link.rate == 3.0


class TestEventClockEdges:
    def test_late_arrival_after_receiver_departs(self):
        # A latency-delayed packet must not crash when its receiver was
        # removed while it was in flight.
        from repro.sim import ConstantRateLink

        sim = OverlaySimulator(
            rng=random.Random(11),
            link_factory=lambda chars, s, r: ConstantRateLink(2.0, latency=1.5),
        )
        sim.add_node(OverlayNode("s", 50, is_source=True))
        sim.add_node(OverlayNode("p", 50))
        sim.connect("s", "p")
        sim.tick()  # packets now in flight, arriving at t=2.5
        sim.remove_node("p")
        sim.tick()  # must not raise
        sim.tick()
        assert "p" not in sim.nodes

    def test_shared_scheduler_with_nonzero_start(self):
        from repro.sim import EventScheduler

        sched = EventScheduler(start=5.0)
        sim = OverlaySimulator(rng=random.Random(12), scheduler=sched)
        sim.add_node(OverlayNode("s", 30, is_source=True))
        sim.add_node(OverlayNode("p", 30))
        sim.connect("s", "p")
        report = sim.run(max_ticks=100)
        assert report.all_complete
        assert sched.now == 5.0 + report.ticks


class TestSimulationReport:
    def test_efficiency_no_packets(self):
        rep = SimulationReport(
            ticks=0, all_complete=False, completion_ticks={},
            packets_sent=0, packets_lost=0, packets_useful=0,
            reconfigurations=0,
        )
        assert rep.efficiency == 0.0

    def test_efficiency_excludes_lost(self):
        rep = SimulationReport(
            ticks=10, all_complete=True, completion_ticks={},
            packets_sent=100, packets_lost=20, packets_useful=40,
            reconfigurations=0,
        )
        assert rep.efficiency == pytest.approx(0.5)


class TestLossyDelivery:
    def test_loss_slows_but_does_not_block(self):
        results = {}
        for loss in (0.0, 0.4):
            sim = OverlaySimulator(rng=random.Random(5))
            sim.add_node(OverlayNode("s", 60, is_source=True))
            sim.add_node(OverlayNode("p", 60))
            sim.connect("s", "p")
            sim.connections[("s", "p")].loss_rate = loss
            results[loss] = sim.run(max_ticks=1_000)
        assert results[0.0].all_complete and results[0.4].all_complete
        assert results[0.4].ticks > results[0.0].ticks
        assert results[0.4].packets_lost > 0

    def test_empty_partial_sender_skipped(self):
        sim = OverlaySimulator(rng=random.Random(6))
        sim.add_node(OverlayNode("empty", 50))
        sim.add_node(OverlayNode("recv", 50, initial_ids=[1]))
        assert sim.connect("empty", "recv")
        sim.tick()  # must not raise despite the empty sender
        assert sim.report().packets_sent == 0

    def test_strategy_refresh_tracks_growth(self):
        """After refresh, a relay's newly acquired symbols are shareable."""
        sim = OverlaySimulator(refresh_every=10, rng=random.Random(7))
        sim.add_node(OverlayNode("src", 40, is_source=True))
        sim.add_node(OverlayNode("relay", 40))
        sim.add_node(OverlayNode("leaf", 40))
        sim.connect("src", "relay")
        sim.connect("relay", "leaf")
        report = sim.run(max_ticks=500)
        # The leaf can ONLY complete via content the relay obtained after
        # the initial (empty) connection — refresh made that flow.
        assert report.all_complete
