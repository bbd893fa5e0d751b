"""Kernel-parity pins: ``measurement.engine`` columnar vs reference.

There is one packet engine; ``engine="columnar"`` only swaps the epoch's
usefulness kernel (min-wise card matrix prefill instead of scalar
``SummaryScheme.usefulness``).  It promises seeded-metric-identical runs
— same tick count, same packet totals, same reconfiguration decisions,
same control bytes — on every scenario in the catalog.  These tests run
each scenario at both ``engine`` values and compare the full report.

The numpy-free class monkeypatches :func:`repro.hashing.batch._numpy`
(the single gate the whole optional-numpy contract flows through), under
which both ``engine`` values take the same scalar path, so this file
holds its pins in the CI lane that has no numpy installed too.
"""

from dataclasses import replace

import pytest

from repro.api import run, specs
from repro.api.spec import SpecError

import repro.hashing.batch as batch


def _with_engine(spec, engine):
    return replace(spec, measurement=replace(spec.measurement, engine=engine))


def _both_engines(spec):
    ref = run(_with_engine(spec, "reference"))
    col = run(_with_engine(spec, "columnar"))
    return ref, col


def _assert_parity(spec):
    ref, col = _both_engines(spec)
    assert col.metrics == ref.metrics
    if ref.report is not None:
        assert col.report == ref.report
    assert col.completed == ref.completed


CATALOG = {
    "flash_crowd": lambda: specs.flash_crowd(
        num_peers=16, target=60, initial_seeded=3, waves=2, wave_interval=8, seed=11
    ),
    "source_departure": lambda: specs.source_departure(
        num_peers=8, target=60, seed=23
    ),
    "asymmetric_bandwidth": lambda: specs.asymmetric_bandwidth(
        num_fast=4, num_slow=4, target=60, seed=31
    ),
    "correlated_regional_loss": lambda: specs.correlated_regional_loss(
        peers_per_region=4, target=60, seed=48
    ),
    "figure1": lambda: specs.figure1(target=120, seed=5),
    "random_overlay": lambda: specs.random_overlay(num_peers=8, target=120, seed=17),
}


class TestCatalogParity:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_scenario(self, name):
        _assert_parity(CATALOG[name]())

    def test_adaptive_overlay_all_arms(self):
        # One spec runs the static, random, and informed arms; all
        # three must agree between kernels (the informed arm drives
        # the vectorized summary-card path).
        spec = specs.adaptive_overlay(
            mirrors_per_group=3, joiners=3, target=60, seed=2, max_ticks=4_000
        )
        _assert_parity(spec)

    @pytest.mark.parametrize("policy", ["informed", "random", "static"])
    def test_scan_budget_sampling(self, policy):
        # A candidate-scan budget makes epochs draw rng.sample(); the
        # array-kernel epoch must consume the identical stream.
        spec = (
            specs.random_overlay(num_peers=10, target=120, seed=9)
            .with_override("reconfig.policy", policy)
            .with_override("reconfig.scan_budget", 4)
        )
        _assert_parity(spec)

    def test_non_minwise_scheme_falls_back(self):
        # A bloom reconfig summary has no card matrix; the epoch must
        # take the scalar path and still match exactly.
        spec = (
            specs.random_overlay(num_peers=8, target=100, seed=3)
            .with_override("reconfig.policy", "informed")
            .with_override("reconfig.summary.kind", "bloom")
        )
        _assert_parity(spec)


class TestWithoutNumpy:
    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(batch, "_numpy", lambda: None)

    @pytest.mark.parametrize("name", ["flash_crowd", "random_overlay"])
    def test_scenario(self, name):
        _assert_parity(CATALOG[name]())

    def test_adaptive_overlay(self):
        spec = specs.adaptive_overlay(
            mirrors_per_group=2, joiners=2, target=40, seed=2, max_ticks=4_000
        )
        _assert_parity(spec)


class TestEngineKnob:
    def test_default_is_reference(self):
        assert specs.flash_crowd().measurement.engine == "reference"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError):
            _with_engine(specs.flash_crowd(), "turbo")

    def test_engine_round_trips_json(self):
        from repro.api.spec import ExperimentSpec

        spec = _with_engine(specs.flash_crowd(), "columnar")
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.measurement.engine == "columnar"

    def test_override_path(self):
        spec = specs.random_overlay().with_override("measurement.engine", "columnar")
        assert spec.measurement.engine == "columnar"

    def test_engine_selects_the_epoch_kernel_not_a_class(self):
        from repro.api import build
        from repro.overlay.simulator import OverlaySimulator

        for engine, card_matrix in (("reference", False), ("columnar", True)):
            sim = build(_with_engine(specs.flash_crowd(), engine)).scenario.simulator
            assert type(sim) is OverlaySimulator
            assert sim.card_matrix is card_matrix


class TestMidRunMutation:
    def test_bandwidth_retune_keeps_parity(self):
        """Retuning a connection mid-run (through the setters, which
        re-steer the auto-built link) takes effect on the next tick at
        both ``engine`` values alike."""
        from repro.api import build

        def run_engine(engine):
            spec = _with_engine(
                specs.random_overlay(num_peers=6, target=100, seed=8), engine
            )
            sim = build(spec).scenario.simulator

            def throttle():
                for conn in sim.connections.values():
                    conn.bandwidth = conn.link.rate * 0.5
                    conn.loss_rate = 0.05

            sim.scheduler.schedule_at(6.5, throttle)
            report = sim.run(max_ticks=400)
            return report

        assert run_engine("columnar") == run_engine("reference")
