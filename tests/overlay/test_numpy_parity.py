"""Numpy-parity pins: the one fork left in the estimate path.

There is one packet engine and one estimate kernel
(``MinwiseSummary.estimate_resemblance_many``); the only choice it makes
is whether numpy is importable — one array comparison, or the positional
loop.  Both promise seeded-identical runs — same tick count, same packet
totals, same reconfiguration decisions, same control bytes — on every
scenario in the catalog.  These tests run each scenario once with numpy
and once with :func:`repro.hashing.batch._numpy` patched to ``None`` (the
single gate the whole optional-numpy contract flows through) and compare
the full report.

``measurement.engine`` used to select between two epoch kernels; it is
inert now and ``TestEngineKnob`` pins exactly that.
"""

import pytest

from repro.api import build, run, specs
from repro.api.spec import ExperimentSpec, SpecError

import repro.hashing.batch as batch

needs_numpy = pytest.mark.skipif(
    batch._numpy() is None, reason="without numpy there is no fork to compare"
)


def _with_and_without_numpy(measure):
    """``measure()`` with numpy, then with the gate patched shut."""
    with_numpy = measure()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "_numpy", lambda: None)
        without = measure()
    return with_numpy, without


def _assert_parity(spec):
    fast, plain = _with_and_without_numpy(lambda: run(spec))
    assert plain.metrics == fast.metrics
    if fast.report is not None:
        assert plain.report == fast.report
    assert plain.completed == fast.completed


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


@needs_numpy
class TestCatalogParity:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_scenario(self, name):
        _assert_parity(CATALOG[name]())

    def test_adaptive_overlay_all_arms(self):
        # One spec runs the static, random, and informed arms; all
        # three must agree (the informed arm drives the batched
        # summary-card comparison).
        spec = specs.adaptive_overlay(
            mirrors_per_group=3, joiners=3, target=60, seed=2, max_ticks=4_000
        )
        _assert_parity(spec)

    @pytest.mark.parametrize("policy", ["informed", "random", "static"])
    def test_scan_budget_sampling(self, policy):
        # A candidate-scan budget makes epochs draw rng.sample(); the
        # stream must not depend on how the estimates are computed.
        spec = (
            specs.random_overlay(num_peers=10, target=120, seed=9)
            .with_override("reconfig.policy", policy)
            .with_override("reconfig.scan_budget", 4)
        )
        _assert_parity(spec)

    def test_non_minwise_scheme(self):
        # A bloom reconfig summary compares pair by pair either way;
        # numpy still accelerates its index kernels.
        spec = (
            specs.random_overlay(num_peers=8, target=100, seed=3)
            .with_override("reconfig.policy", "informed")
            .with_override("reconfig.summary.kind", "bloom")
        )
        _assert_parity(spec)


class TestEngineKnob:
    """``measurement.engine`` still validates and round-trips; it selects
    nothing."""

    def test_field_round_trips(self):
        assert specs.flash_crowd().measurement.engine == "reference"
        spec = specs.flash_crowd().with_override("measurement.engine", "columnar")
        assert spec.measurement.engine == "columnar"
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.measurement.engine == "columnar"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError):
            specs.flash_crowd().with_override("measurement.engine", "turbo")

    def test_values_differ_only_in_the_echoed_spec(self):
        spec = CATALOG["random_overlay"]().with_override(
            "reconfig.policy", "informed"
        )
        dumps = {
            engine: run(spec.with_override("measurement.engine", engine)).to_dict(
                include_series=True
            )
            for engine in ("reference", "columnar")
        }
        for engine, dump in dumps.items():
            assert dump["spec"]["measurement"].pop("engine") == engine
        assert dumps["columnar"] == dumps["reference"]


@needs_numpy
class TestMidRunMutation:
    def test_bandwidth_retune_keeps_parity(self):
        """Retuning a connection's link mid-run takes effect on the next
        tick with and without numpy alike."""

        def retuned_run():
            spec = specs.random_overlay(num_peers=6, target=100, seed=8)
            sim = build(spec).scenario.simulator

            def throttle():
                for conn in sim.connections.values():
                    conn.link.rate *= 0.5
                    conn.link.loss_rate = 0.05

            sim.scheduler.schedule_at(6.5, throttle)
            return sim.run(max_ticks=400)

        fast, plain = _with_and_without_numpy(retuned_run)
        assert plain == fast
