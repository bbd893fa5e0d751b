"""Cumulative packet accounting survives disconnects and departures.

``SimulationReport.packets_sent/lost/useful`` are simulator-owned
running totals incremented at the event sites, not sums over the
currently-live connections.  Historically ``report()`` summed live
``Connection`` counters, so every rewiring drop silently erased the
dropped link's history — the undercount these regressions pin against:

* totals match hand-computed traffic on lossless fixed topologies;
* dropping connections after the fact changes nothing (the acceptance
  invariance);
* a packet in flight on a connection that dies before it lands still
  counts as useful when it arrives;
* a departed node keeps its completion tick (tombstones).
"""

import random

import pytest

from repro.api import build, run, specs
from repro.overlay import OverlayNode, OverlaySimulator
from repro.sim.links import LatencyJitterLink


def _pair_sim(target=10, rate=2.0):
    """One source feeding one empty receiver over the default link."""
    sim = OverlaySimulator(rng=random.Random(0))
    sim.add_node(OverlayNode("s", target, is_source=True))
    sim.add_node(OverlayNode("r", target, max_connections=1))
    assert sim.connect("s", "r")
    return sim


class TestHandComputedTotals:
    def test_lossless_pair(self):
        # rate=2, loss=0, target=10: five ticks of two fresh source
        # symbols each, every packet useful.
        sim = _pair_sim(target=10, rate=2.0)
        sim.connections[("s", "r")].bandwidth = 2.0
        sim.connections[("s", "r")].loss_rate = 0.0
        report = sim.run(max_ticks=100)
        assert report.ticks == 5
        assert report.packets_sent == 10
        assert report.packets_lost == 0
        assert report.packets_useful == 10
        assert report.efficiency == 1.0

    def test_totals_equal_connection_sums_without_drops(self):
        # With no disconnects the cumulative totals and the live
        # per-connection counters are the same numbers.
        spec = specs.figure1(target=120, seed=5)
        sim = build(spec).scenario.simulator
        report = sim.run(max_ticks=spec.measurement.max_ticks)
        conns = sim.connections.values()
        assert report.packets_sent == sum(c.packets_sent for c in conns)
        assert report.packets_lost == sum(c.packets_lost for c in conns)
        assert report.packets_useful == sum(c.packets_useful for c in conns)

    def test_totals_match_stats_recorder_under_rewiring(self):
        # The StatsRecorder counts at the same event sites, so its
        # series totals are the ground truth the report must match even
        # when rewiring drops connections mid-run (this run does).
        res = run(specs.random_overlay(num_peers=8, target=200, seed=3))
        stats, report = res.stats, res.report
        for metric, total in (
            ("sent", report.packets_sent),
            ("lost", report.packets_lost),
            ("useful", report.packets_useful),
        ):
            recorded = sum(
                stats.total(entity, metric)
                for entity in stats.entities()
                if "->" in entity
            )
            assert total == recorded
        # ...and the run really exercised the failure mode: some
        # history lives only in the cumulative totals, because rewiring
        # dropped connections that had already moved packets.
        sim = build(
            specs.random_overlay(num_peers=8, target=200, seed=3)
        ).scenario.simulator
        sim.run(max_ticks=10_000)
        assert sum(c.packets_sent for c in sim.connections.values()) < sim.packets_sent


class TestDisconnectInvariance:
    def test_report_unchanged_by_dropping_every_connection(self):
        # The ISSUE's acceptance criterion: identical totals whether or
        # not connections are dropped after the traffic flowed.
        def totals(drop):
            sim = build(
                specs.random_overlay(num_peers=6, target=100, seed=8)
            ).scenario.simulator
            for _ in range(20):
                sim.tick()
            if drop:
                for sender_id, receiver_id in list(sim.connections):
                    sim.disconnect(sender_id, receiver_id)
            r = sim.report()
            return (r.packets_sent, r.packets_lost, r.packets_useful)

        kept, dropped = totals(drop=False), totals(drop=True)
        assert kept == dropped
        assert kept[0] > 0

    def test_mid_run_disconnects_only_stop_future_traffic(self):
        # Disconnecting mid-run must keep everything counted so far.
        sim = build(
            specs.random_overlay(num_peers=6, target=100, seed=8)
        ).scenario.simulator
        for _ in range(15):
            sim.tick()
        before = (sim.packets_sent, sim.packets_lost, sim.packets_useful)
        for key in list(sim.connections):
            sim.disconnect(*key)
        sim.tick()
        after = sim.report()
        assert (
            after.packets_sent,
            after.packets_lost,
            after.packets_useful,
        ) == before


class TestLateArrivalOnDeadConnection:
    def test_in_flight_packet_counts_after_disconnect(self):
        # A latency-2 link puts tick 1's packet in flight; the
        # connection dies before it lands; the arrival must still
        # credit the simulator totals (the receiver got the bytes).
        sim = _pair_sim(target=10)
        conn = sim.connections[("s", "r")]
        conn.link = LatencyJitterLink(1.0, latency=2.0, jitter=0.0, loss_rate=0.0)
        sim.tick()  # sends exactly one packet, arriving at t=3
        assert sim.packets_sent == 1
        assert sim.packets_useful == 0
        sim.disconnect("s", "r")
        sim.tick()
        sim.tick()  # the arrival fires inside this window
        report = sim.report()
        assert report.packets_sent == 1
        assert report.packets_lost == 0
        assert report.packets_useful == 1
        assert len(sim.nodes["r"].working_set) == 1


class TestCompletionTombstones:
    def test_departed_node_keeps_completion_tick(self):
        sim = _pair_sim(target=4)
        sim.connections[("s", "r")].bandwidth = 2.0
        sim.connections[("s", "r")].loss_rate = 0.0
        report = sim.run(max_ticks=50)
        done_at = report.completion_ticks["r"]
        assert done_at is not None
        sim.remove_node("r")
        after = sim.report()
        assert after.completion_ticks["r"] == done_at

    def test_departed_incomplete_node_reports_none(self):
        sim = _pair_sim(target=1_000)
        sim.tick()
        sim.remove_node("r")
        assert "r" in sim.report().completion_ticks
        assert sim.report().completion_ticks["r"] is None

    def test_source_departure_scenario_keeps_src_free_of_ticks(self):
        # Sources never appear in completion_ticks, departed or not.
        res = run(specs.source_departure(num_peers=6, target=60, seed=2))
        assert "src" not in res.report.completion_ticks
        assert set(res.report.completion_ticks) == {f"p{i}" for i in range(6)}
