"""FlowSimulator unit behaviour: conservation, determinism, policies."""

import random

import pytest

from repro.flow import CohortDef, FlowSimulator
from repro.overlay.reconfiguration import (
    RandomRewiring,
    SketchAdmission,
    UtilityRewiring,
    default_scheme,
)


def _informed(rng):
    scheme = default_scheme()
    return SketchAdmission(scheme), UtilityRewiring(scheme, rng=rng)


def _simple_cohorts(members=10, demand=50, distinct=60):
    return [
        CohortDef("a", 0, members, demand=demand, distinct=distinct),
        CohortDef("b", 0, members, demand=demand, distinct=distinct, arrival=5.5),
    ]


class TestConstruction:
    def test_one_source_per_object(self):
        sim = FlowSimulator(
            [
                CohortDef("x", 0, 4, demand=10, distinct=12),
                CohortDef("y", 0, 4, demand=10, distinct=12),
                CohortDef("z", 1, 4, demand=10, distinct=12),
            ],
            rate=2.0,
        )
        assert sorted(sim.sources) == [0, 1]
        assert sim.population == 12  # sources are not population

    def test_duplicate_cohort_id_rejected(self):
        with pytest.raises(ValueError):
            FlowSimulator(
                [
                    CohortDef("x", 0, 4, demand=10, distinct=12),
                    CohortDef("x", 0, 4, demand=10, distinct=12),
                ],
                rate=2.0,
            )

    def test_cohort_def_validation(self):
        with pytest.raises(ValueError):
            CohortDef("x", 0, 0, demand=10, distinct=12)
        with pytest.raises(ValueError):
            CohortDef("x", 0, 4, demand=10, distinct=5)
        with pytest.raises(ValueError):
            CohortDef("x", 0, 4, demand=10, distinct=12, initial_fraction=1.0)
        with pytest.raises(ValueError):
            CohortDef("x", 0, 4, demand=10, distinct=12, slice_index=2)

    def test_mirror_slices_are_complementary(self):
        sim = FlowSimulator(
            [
                CohortDef("ma", 0, 4, demand=100, distinct=120,
                          initial_fraction=0.5, slice_index=0),
                CohortDef("mb", 0, 4, demand=100, distinct=120,
                          initial_fraction=0.5, slice_index=1),
            ],
            rate=2.0,
            rng=random.Random(1),
        )
        a = set(sim.cohorts[0].rep.working_set.ids)
        b = set(sim.cohorts[1].rep.working_set.ids)
        assert len(a) == len(b) == 50
        assert not a & b


class TestConservation:
    def test_useful_symbols_equal_total_deficit(self):
        # Every completed run must account for exactly the symbols the
        # population lacked at start: members * (demand - seeded).
        cohorts = [
            CohortDef("ma", 0, 3, demand=40, distinct=48,
                      initial_fraction=0.5, slice_index=0),
            CohortDef("mb", 0, 3, demand=40, distinct=48,
                      initial_fraction=0.5, slice_index=1),
            CohortDef("w0", 0, 10, demand=40, distinct=48, arrival=5.5),
        ]
        sim = FlowSimulator(cohorts, rate=2.0, loss_rate=0.05,
                            rng=random.Random(7))
        report = sim.run(max_ticks=2_000)
        assert report.all_complete
        deficit = 3 * 20 + 3 * 20 + 10 * 40
        assert report.packets_useful == pytest.approx(deficit)

    def test_loss_accounting(self):
        sim = FlowSimulator(_simple_cohorts(), rate=2.0, loss_rate=0.1,
                            rng=random.Random(3))
        report = sim.run(max_ticks=2_000)
        assert report.packets_lost == pytest.approx(report.packets_sent * 0.1)
        assert 0.0 < report.efficiency <= 1.0


class TestDeterminism:
    def test_same_seed_same_report(self):
        def build():
            rng = random.Random(42)
            admission, rewiring = _informed(rng)
            return FlowSimulator(
                _simple_cohorts(), rate=2.0, loss_rate=0.02,
                admission=admission, rewiring=rewiring, rng=rng,
            )

        a = build().run(max_ticks=2_000)
        b = build().run(max_ticks=2_000)
        assert a == b


class TestCompletion:
    def test_mid_window_completion_time(self):
        # rate 10/tick against demand 20: done within tick ~2, well
        # before the first epoch at t=5 — phi interpolation, not an
        # epoch-grid snap.
        sim = FlowSimulator(
            [CohortDef("a", 0, 5, demand=20, distinct=24)], rate=10.0,
            rng=random.Random(5),
        )
        report = sim.run(max_ticks=100)
        assert report.all_complete
        (t, members), = report.completions
        assert members == 5
        assert 1.0 < t < 3.0

    def test_tiers_complete_in_bandwidth_order(self):
        sim = FlowSimulator(
            [CohortDef("a", 0, 10, demand=40, distinct=48)],
            rate=2.0, rate_tiers=2, rate_spread=0.4,
            rng=random.Random(5),
        )
        report = sim.run(max_ticks=1_000)
        assert report.all_complete
        assert len(report.completions) == 2
        times = [t for t, _ in report.completions]
        assert times[0] < times[1]
        assert sum(m for _, m in report.completions) == 10

    def test_max_ticks_caps_an_unfinished_run(self):
        sim = FlowSimulator(
            [CohortDef("a", 0, 5, demand=1_000, distinct=1_200)],
            rate=0.5, rng=random.Random(5),
        )
        report = sim.run(max_ticks=10)
        assert not report.all_complete
        assert report.ticks == 10
        assert report.peers_completed == 0


class TestControlPlane:
    def test_static_peering_has_free_epochs(self):
        sim = FlowSimulator(_simple_cohorts(), rate=2.0, rng=random.Random(2))
        report = sim.run(max_ticks=2_000)
        assert report.reconfig_epochs == 0
        assert report.control_bytes == 0
        assert report.reconfigurations == 0

    def test_informed_epochs_charge_real_wire_bytes(self):
        rng = random.Random(2)
        admission, rewiring = _informed(rng)
        sim = FlowSimulator(
            _simple_cohorts(), rate=2.0,
            admission=admission, rewiring=rewiring, rng=rng,
        )
        report = sim.run(max_ticks=2_000)
        assert report.reconfig_epochs > 0
        assert report.control_bytes > 0

    def test_scan_budget_caps_control_bytes(self):
        def run(budget):
            rng = random.Random(2)
            admission, rewiring = _informed(rng)
            cohorts = [
                CohortDef(f"c{i}", 0, 4, demand=60, distinct=72,
                          initial_fraction=0.4, slice_index=i % 2)
                for i in range(8)
            ]
            sim = FlowSimulator(
                cohorts, rate=1.0, admission=admission, rewiring=rewiring,
                scan_budget=budget, rng=rng,
            )
            return sim.run(max_ticks=60)

        assert run(1).control_bytes < run(0).control_bytes

    def test_informed_rewiring_avoids_redundant_senders(self):
        # One receiver, slots for one peer beside the source; candidate
        # pool is six twins (identical seed slice: novelty 0) and one
        # complement (disjoint slice: novelty 1).  Informed rewiring
        # must pick the complement; blind random peering mostly wires a
        # twin and wastes its transfers — the paper's core claim, at
        # cohort granularity.
        def run(informed: bool) -> float:
            rng = random.Random(9)
            if informed:
                admission, rewiring = _informed(rng)
            else:
                admission, rewiring = None, RandomRewiring(rng=rng)
            cohorts = [
                CohortDef("rx", 0, 10, demand=60, distinct=72,
                          initial_fraction=0.45, slice_index=0),
                CohortDef("twin-complete", 0, 10, demand=60, distinct=72,
                          initial_fraction=0.45, slice_index=0),
                CohortDef("comp", 0, 10, demand=60, distinct=72,
                          initial_fraction=0.45, slice_index=1),
            ]
            sim = FlowSimulator(
                cohorts, rate=2.0, max_connections=2,
                admission=admission, rewiring=rewiring, rng=rng,
            )
            sim.run(max_ticks=40)
            rx = sim.cohorts[0]
            peers = [s.cohort_id for s in rx.senders if not s.is_source]
            return peers

        assert run(informed=True) == ["comp"]

    def test_novelty_is_ground_truth_overlap(self):
        sim = FlowSimulator(
            [
                CohortDef("ma", 0, 4, demand=100, distinct=120,
                          initial_fraction=0.5, slice_index=0),
                CohortDef("mb", 0, 4, demand=100, distinct=120,
                          initial_fraction=0.5, slice_index=1),
            ],
            rate=2.0, rng=random.Random(1),
        )
        ma, mb = sim.cohorts
        assert sim._novel_fraction(ma, mb) == 1.0
        assert sim._novel_fraction(ma, ma) == 0.0
        assert sim._novel_fraction(ma, sim.sources[0]) == 1.0
