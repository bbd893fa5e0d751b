"""Tests for the event-driven scenario catalog, driven hands-on through
``build(spec).scenario``."""

from functools import partial

import pytest

from repro.api import build, registry, specs

EVENT_SCENARIOS = (
    "flash_crowd",
    "source_departure",
    "asymmetric_bandwidth",
    "correlated_regional_loss",
)


def _scenario(name, **kwargs):
    return build(getattr(specs, name)(**kwargs)).scenario


flash_crowd = partial(_scenario, "flash_crowd")
source_departure = partial(_scenario, "source_departure")
asymmetric_bandwidth_swarm = partial(_scenario, "asymmetric_bandwidth")
correlated_regional_loss = partial(_scenario, "correlated_regional_loss")


class TestFlashCrowd:
    def test_crowd_completes_and_joins_are_staggered(self):
        sc = flash_crowd(num_peers=24, target=80, waves=3, wave_interval=15)
        report = sc.run(max_ticks=4000)
        assert report.all_complete
        # Waves actually fired as events on the clock...
        assert len(sc.events) == 3
        # ...and joiners carry join ticks matching their wave times
        # (waves land mid-tick after tick k's delivery pass).
        join_ticks = {
            n.joined_at_tick
            for nid, n in sc.simulator.nodes.items()
            if nid.startswith("p")
        }
        assert join_ticks == {15, 30, 45}

    def test_joiners_used_orchestrated_plans(self):
        sc = flash_crowd(num_peers=16, target=60, waves=2)
        sc.run(max_ticks=4000)
        plans = sc.extras["join_plans"]
        assert len(plans) == 16 - 4  # every non-seed joiner planned
        # Decisions were stamped with the simulated clock.
        assert all(p.decided_at is not None and p.decided_at > 0 for p in plans.values())
        # At least some joiners found useful peers through their cards.
        assert any(p.selection.chosen for p in plans.values())

    def test_waves_fire_even_if_seeds_finish_first(self):
        # Seeds complete long before the late waves are due; run() must
        # keep the clock going until the scheduled joins have happened.
        sc = flash_crowd(num_peers=24, target=20, waves=3, wave_interval=40)
        report = sc.run(max_ticks=4000)
        assert len(sc.events) == 3
        assert len(sc.simulator.nodes) == 24 + 1
        assert report.all_complete
        assert len(sc.extras["join_plans"]) == 24 - 4

    def test_256_node_crowd_plans_every_join_on_the_clock(self):
        sc = flash_crowd(
            num_peers=256, target=40, waves=8, wave_interval=15, initial_seeded=8
        )
        report = sc.run(max_ticks=20_000)
        assert report.all_complete
        assert len(sc.events) == 8  # every wave fired on the clock
        # Every joiner planned its connections from live calling cards.
        assert len(sc.extras["join_plans"]) == 256 - 8

    def test_stats_recorder_captured_deliveries(self):
        sc = flash_crowd(num_peers=12, target=50)
        report = sc.run(max_ticks=4000)
        totals = sum(sc.stats.total(e, "sent") for e in sc.stats.entities())
        # The recorder keeps counts for connections later dropped by
        # rewiring; the report only sums live connections — so the
        # recorder is the more complete ledger.
        assert totals >= report.packets_sent > 0
        # Per-node progress gauges reached the target for everyone.
        for nid, node in sc.simulator.nodes.items():
            if not node.is_source:
                assert sc.stats.series(nid, "symbols")[-1][1] >= sc.target


@pytest.mark.slow
class TestFlashCrowdScale:
    def test_larger_crowd_still_completes(self):
        sc = flash_crowd(num_peers=96, target=100, waves=6, wave_interval=15)
        report = sc.run(max_ticks=8000)
        assert report.all_complete

    def test_100k_flash_crowd_window_delivers(self):
        """Nearly-empty peers rushing 16 sources: eight ticks, one budgeted
        epoch over every receiver, at 100k nodes."""
        spec = (
            specs.random_overlay(
                num_peers=100_000, target=100, num_sources=16,
                initial_fraction_lo=0.0, initial_fraction_hi=0.05,
                seed=0, with_physical=False,
            )
            .with_override("strategy.name", "Random")
            .with_override("reconfig.policy", "informed")
            .with_override("reconfig.interval", 5.0)
            .with_override("reconfig.scan_budget", 8)
            .with_override("measurement.record_series", False)
        )
        sim = build(spec).scenario.simulator
        for _ in range(8):
            sim.tick()
        report = sim.report()
        assert report.packets_sent > 0
        assert report.packets_useful > 0


class TestSourceDeparture:
    def test_swarm_finishes_without_the_source(self):
        sc = source_departure()
        report = sc.run(max_ticks=4000)
        assert report.all_complete
        assert "src" not in sc.simulator.nodes  # departure actually happened
        assert sc.events == ["t=10 source departed"]
        # Completion necessarily came after the departure tick.
        finishes = [t for t in report.completion_ticks.values() if t is not None]
        assert max(finishes) > 10

    def test_departed_source_stops_sending(self):
        sc = source_departure(depart_at=5.0)
        sc.run(max_ticks=4000)
        src_conns = [
            c for c in sc.simulator.connections.values() if c.sender.node_id == "src"
        ]
        assert src_conns == []


class TestAsymmetricBandwidth:
    def test_completes_with_heterogeneous_links(self):
        sc = asymmetric_bandwidth_swarm()
        report = sc.run(max_ticks=4000)
        assert report.all_complete

    def test_link_classes_differ(self):
        from repro.topology.paths import UNIT_PATH

        sc = asymmetric_bandwidth_swarm()
        sc.run(max_ticks=4000)
        sim, fast = sc.simulator, sc.extras["fast_class"]
        assert sim.connections
        for (s, r), conn in sim.connections.items():
            assert (conn.link.jitter > 0) == (s not in fast)
        # The run may end with no slow sender feeding anyone, so ask the
        # link rules for a slow sender's link directly.
        slow = next(n for n in sim.nodes if n not in fast)
        some_fast = sorted(fast)[0]
        assert sim.link_factory(UNIT_PATH, slow, some_fast).jitter > 0
        assert sim.link_factory(UNIT_PATH, some_fast, slow).jitter == 0.0

    def test_no_fast_class_falls_back_to_source(self):
        sc = asymmetric_bandwidth_swarm(num_fast=0, num_slow=4, target=60)
        report = sc.run(max_ticks=4000)
        assert report.all_complete

    def test_fast_class_finishes_no_later_on_average(self):
        sc = asymmetric_bandwidth_swarm(num_fast=5, num_slow=5, target=120)
        report = sc.run(max_ticks=4000)
        assert report.all_complete
        fast = [
            t for n, t in report.completion_ticks.items() if n.startswith("fast")
        ]
        slow = [
            t for n, t in report.completion_ticks.items() if n.startswith("slow")
        ]
        assert sum(fast) / len(fast) <= sum(slow) / len(slow)


class TestCorrelatedRegionalLoss:
    def test_completes_and_trunk_bursts_happened(self):
        sc = correlated_regional_loss()
        report = sc.run(max_ticks=4000)
        assert report.all_complete
        assert any("-> bad" in e for e in sc.events)  # at least one burst

    def test_trunk_links_share_one_chain(self):
        sc = correlated_regional_loss()
        trunk = sc.extras["trunk"]
        from repro.sim import GilbertElliottLink

        shared = [
            c.link
            for c in sc.simulator.connections.values()
            if isinstance(c.link, GilbertElliottLink)
        ]
        assert shared and all(l.process is trunk for l in shared)


class TestCatalog:
    def test_catalog_names_and_types(self):
        assert set(EVENT_SCENARIOS) <= set(registry.names())

    @pytest.mark.slow
    def test_every_scenario_completes_at_defaults(self):
        for name in EVENT_SCENARIOS:
            report = _scenario(name).run(max_ticks=8000)
            assert report.all_complete, name
