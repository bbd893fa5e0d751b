"""Parity pins: the spec pipeline reproduces every legacy path exactly.

Two layers of protection:

* **Baseline pins** — the default-parameter catalog scenarios produce
  the exact seeded metrics the pre-API implementation produced (the
  constants below were captured from the hand-written scenario
  constructors before the refactor).
* **Delivery/figure parity** — a ``pair_transfer`` /
  ``multi_sender_transfer`` spec run matches the hand-wired
  make-scenario + make-strategy + simulate loop it replaced, and
  ``run_fig5`` points equal direct spec runs.
"""

import math
import random

import pytest

from repro.api import run, specs
from repro.delivery import SimReceiver, make_strategy
from repro.delivery.scenarios import make_multi_sender_scenario, make_pair_scenario
from repro.delivery.transfer import (
    simulate_multi_sender_transfer,
    simulate_p2p_transfer,
)
from repro.seeding import derive_seed

#: Seeded default-run metrics captured from the legacy implementation
#: (ticks, sent, lost, useful, reconfigurations).  Packet totals were
#: re-recorded when SimulationReport counters became cumulative: the
#: legacy report summed live connections only, so scenarios that drop
#: connections (rewiring, churn, source departure) undercounted.  The
#: runs themselves are tick-for-tick unchanged — only the honest totals
#: grew.
LEGACY_BASELINES = {
    "flash_crowd": (160, 8905, 0, 1648, 65),
    "source_departure": (45, 837, 0, 220, 33),
    "asymmetric_bandwidth": (31, 1472, 8, 692, 15),
    "correlated_regional_loss": (42, 1623, 163, 666, 20),
}

SPEC_FACTORIES = {
    "flash_crowd": specs.flash_crowd,
    "source_departure": specs.source_departure,
    "asymmetric_bandwidth": specs.asymmetric_bandwidth,
    "correlated_regional_loss": specs.correlated_regional_loss,
}


class TestSwarmBaselinePins:
    @pytest.mark.parametrize("name", sorted(LEGACY_BASELINES))
    def test_spec_run_reproduces_legacy_seeded_metrics(self, name):
        result = run(SPEC_FACTORIES[name]())
        ticks, sent, lost, useful, reconf = LEGACY_BASELINES[name]
        report = result.report
        assert report.all_complete
        assert (
            report.ticks,
            report.packets_sent,
            report.packets_lost,
            report.packets_useful,
            report.reconfigurations,
        ) == (ticks, sent, lost, useful, reconf)
        # The flat metrics mirror the report.
        assert result.metrics["ticks"] == ticks
        assert result.completed


class TestDeliveryParity:
    def test_pair_transfer_matches_hand_wired_loop(self):
        seed = 1234
        target, multiplier, corr, name = 300, 1.1, 0.2, "Recode/BF"
        rng = random.Random(seed)
        layout = make_pair_scenario(target, multiplier, corr, rng)
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        strategy = make_strategy(
            name, layout.sender, layout.receiver, rng,
            symbols_desired=layout.target - len(layout.receiver),
        )
        legacy = simulate_p2p_transfer(receiver, strategy)

        result = run(
            specs.pair_transfer(
                target=target, multiplier=multiplier, correlation=corr,
                strategy_name=name, seed=seed,
            )
        )
        assert result.completed == legacy.completed
        assert result.transfer.packets_sent == legacy.packets_sent
        assert result.metrics["overhead"] == legacy.overhead
        assert result.metrics["rounds"] == legacy.rounds

    def test_multi_sender_transfer_matches_hand_wired_loop(self):
        seed = 977
        target, multiplier, corr, senders, name = 300, 1.5, 0.25, 2, "Recode/BF"
        margin = 1.15
        rng = random.Random(seed)
        layout = make_multi_sender_scenario(target, multiplier, corr, senders, rng)
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        deficit = layout.target - len(layout.receiver)
        desired = int(math.ceil(deficit / senders * margin))
        strategies = [
            make_strategy(name, s, layout.receiver, rng, symbols_desired=desired)
            for s in layout.senders
        ]
        legacy = simulate_multi_sender_transfer(receiver, strategies)

        result = run(
            specs.multi_sender_transfer(
                target=target, multiplier=multiplier, correlation=corr,
                num_senders=senders, strategy_name=name, seed=seed,
                desired_margin=margin,
            )
        )
        assert result.completed == legacy.completed
        assert result.metrics["speedup"] == legacy.speedup
        assert result.transfer.rounds == legacy.rounds


def _campaign_cell_seed(sweep_seed: int, correlation: float, strategy: str) -> int:
    """The seed the campaign engine derives for one figure cell.

    Pins the cross-layer contract: a figure point's cell seed is
    ``derive_seed(base seed, "campaign", the cell's (key, value)
    overrides in grid order, trial)`` — so any figure point can be
    replayed as a single direct spec run on any machine.
    """
    overrides = (
        ("params.correlation", correlation),
        ("strategy.name", strategy),
    )
    return derive_seed(sweep_seed, "campaign", overrides, 0)


class TestFigurePortParity:
    def test_fig5_points_equal_direct_spec_runs(self):
        from repro.experiments.fig5678 import run_fig5

        points = run_fig5(
            target=200, trials=1, correlation_points=2, strategies=("Recode/BF",)
        )
        compact = [p for p in points if p.scenario == "compact"]
        assert compact
        for point in compact:
            seed = _campaign_cell_seed(7, point.correlation, "Recode/BF")
            direct = run(specs.pair_transfer(
                target=200, multiplier=1.1, correlation=point.correlation,
                strategy_name="Recode/BF", seed=seed,
            ))
            assert direct.completed
            assert point.value == direct.metrics["overhead"]
            assert point.completed_fraction == 1.0

    def test_fig78_points_equal_direct_spec_runs(self):
        from repro.experiments.fig5678 import DESIRED_MARGIN, run_fig78

        points = run_fig78(
            2, target=200, trials=1, correlation_points=2, strategies=("Recode/BF",)
        )
        stretched = [p for p in points if p.scenario == "stretched"]
        assert stretched
        for point in stretched:
            seed = _campaign_cell_seed(13, point.correlation, "Recode/BF")
            direct = run(specs.multi_sender_transfer(
                target=200, multiplier=1.5, correlation=point.correlation,
                num_senders=2, strategy_name="Recode/BF", seed=seed,
                desired_margin=DESIRED_MARGIN,
            ))
            if direct.completed:
                assert point.value == direct.metrics["speedup"]


class TestJsonRoundTripRuns:
    """The acceptance property: spec → json → spec → run is identical."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: specs.flash_crowd(
                num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=21
            ),
            lambda: specs.source_departure(num_peers=5, target=50, seed=22),
            lambda: specs.asymmetric_bandwidth(num_fast=2, num_slow=2, target=40, seed=23),
            lambda: specs.correlated_regional_loss(peers_per_region=2, target=40, seed=24),
            lambda: specs.pair_transfer(target=150, correlation=0.3, seed=25),
            lambda: specs.multi_sender_transfer(target=150, correlation=0.2, seed=26),
            lambda: specs.session_swarm(num_receivers=2, num_blocks=40, seed=27),
        ],
        ids=[
            "flash_crowd",
            "source_departure",
            "asymmetric_bandwidth",
            "correlated_regional_loss",
            "pair_transfer",
            "multi_sender_transfer",
            "session_swarm",
        ],
    )
    def test_round_tripped_spec_runs_identically(self, factory):
        from repro.api import ExperimentSpec

        spec = factory()
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        first = run(spec).to_dict(include_series=True)
        second = run(restored).to_dict(include_series=True)
        assert first == second

    def test_same_spec_twice_is_bit_identical(self):
        spec = specs.flash_crowd(
            num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=31
        )
        assert run(spec).to_dict(include_series=True) == run(spec).to_dict(
            include_series=True
        )


class TestSpecFidelity:
    """Review-hardening pins: the spec's declarative fields are honoured."""

    def test_flash_crowd_honours_link_rules(self):
        import dataclasses

        from repro.api import LinkRuleSpec, LinkSpec, registry

        base = registry.small_spec("flash_crowd")
        lossy = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                links=(
                    LinkRuleSpec(
                        link=LinkSpec(kind="constant", rate=2.0, loss_rate=0.4)
                    ),
                ),
            ),
        )
        clean = run(base)
        noisy = run(lossy)
        assert clean.report.packets_lost == 0
        assert noisy.report.packets_lost > 0  # the rule actually applied

    def test_source_group_name_is_honoured(self):
        import dataclasses

        from repro.api import NodeSpec, registry

        base = registry.small_spec("flash_crowd")
        renamed = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(NodeSpec(name="origin", count=1, role="source"),)
                + base.swarm.nodes[1:],
            ),
        )
        result = run(renamed)
        assert result.completed
        assert "origin" not in result.report.completion_ticks  # it is the source

    def test_multi_source_group_rejected(self):
        import dataclasses

        from repro.api import NodeSpec, SpecError, build, registry

        base = registry.small_spec("source_departure")
        doubled = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(NodeSpec(name="src", count=2, role="source"),)
                + base.swarm.nodes[1:],
            ),
        )
        with pytest.raises(SpecError, match="source group"):
            build(doubled)

    def test_max_packets_is_a_total_budget_for_multi_sender(self):
        spec = specs.multi_sender_transfer(
            target=150, correlation=0.0, num_senders=4, seed=3, max_packets=40
        )
        result = run(spec)
        assert result.transfer.packets_sent <= 40

    def test_unequal_region_groups_rejected(self):
        import dataclasses

        from repro.api import SpecError, build, registry

        base = registry.small_spec("correlated_regional_loss")
        groups = {g.name: g for g in base.swarm.nodes}
        lopsided = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(
                    groups["src"],
                    dataclasses.replace(groups["a"], count=5),
                    groups["b"],
                ),
            ),
        )
        with pytest.raises(SpecError, match="equal-sized region groups"):
            build(lopsided)

    def test_sub_round_packet_budget_rejected(self):
        from repro.api import SpecError

        spec = specs.multi_sender_transfer(
            target=150, correlation=0.0, num_senders=4, seed=3, max_packets=2
        )
        with pytest.raises(SpecError, match="smaller than one round"):
            run(spec)

    def test_session_swarm_honours_source_name(self):
        import dataclasses

        from repro.api import NodeSpec, registry

        base = registry.small_spec("session_swarm")
        renamed = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(NodeSpec(name="origin", count=1, role="source"),)
                + base.swarm.nodes[1:],
            ),
        )
        result = run(renamed)
        assert result.completed
        assert set(result.node_sessions) == {"dst0", "dst1"}

    def test_undeclared_peer_group_rejected(self):
        import dataclasses

        from repro.api import NodeSpec, SpecError, build, registry

        base = registry.small_spec("flash_crowd")
        extra = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=base.swarm.nodes + (NodeSpec(name="extra", count=5),),
            ),
        )
        with pytest.raises(SpecError, match="peer groups"):
            build(extra)

    def test_flash_crowd_honours_declared_departure(self):
        import dataclasses

        from repro.api import ChurnSpec, registry

        base = registry.small_spec("flash_crowd")
        with_departure = dataclasses.replace(
            base,
            churn=dataclasses.replace(
                base.churn, depart_node="src", depart_at=8.0
            ),
        )
        result = run(with_departure)
        assert any("departed" in e for e in result.events)
        assert ChurnSpec().depart_node == ""

    def test_unsupported_churn_rejected(self):
        import dataclasses

        from repro.api import ChurnSpec, SpecError, build, registry

        waves = ChurnSpec(join_waves=2, wave_interval=5.0)
        for name in ("source_departure", "asymmetric_bandwidth",
                     "correlated_regional_loss"):
            spec = dataclasses.replace(registry.small_spec(name), churn=waves)
            with pytest.raises(SpecError, match="join waves"):
                build(spec)
        session = dataclasses.replace(
            registry.small_spec("session_swarm"), churn=ChurnSpec()
        )
        with pytest.raises(SpecError, match="churn"):
            build(session)
