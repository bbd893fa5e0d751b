"""congested_swarm scenario: acceptance pins for transport under contention.

The headline claims this scenario exists to demonstrate:

* a closed-loop policy (AIMD) on a shared bottleneck produces
  self-induced queueing — the queue-delay series is non-trivial and
  the drop rate responds to the buffer size;
* congestion control beats open-loop flooding on useful-fraction and
  drop rate when everyone shares one FIFO queue;
* informed reconfiguration keeps its edge over random pairing under
  contention, at both the reference and columnar engines.
"""

import dataclasses

import pytest

from repro.api import SpecError, TransportSpec, build, registry, run, specs


@pytest.fixture(scope="module")
def small_result():
    return run(registry.small_spec("congested_swarm"))


class TestSmallRun:
    def test_completes_with_queueing_evidence(self, small_result):
        m = small_result.metrics
        assert small_result.completed
        assert m["queue_delay_mean"] > 0.0
        assert 0.0 < m["queue_drop_rate"] < 1.0
        assert m["goodput"] > 0.0
        assert 0.0 < m["useful_fraction"] <= 1.0
        # The queue-delay gauge is a real time series, not one sample.
        assert len(small_result.stats.series("bottleneck", "queue_delay")) > 10

    def test_transport_accounting_closes(self, small_result):
        m = small_result.metrics
        assert m["transport_tracked"] > 0
        assert m["transport_acked"] + m["transport_timeouts"] <= m["transport_tracked"]
        assert m["queue_drops"] > 0
        assert m["queue_offered"] > m["queue_drops"]

    def test_seeded_replay(self, small_result):
        again = run(registry.small_spec("congested_swarm"))
        assert again.metrics == small_result.metrics


class TestBufferResponse:
    def test_drop_rate_monotone_in_buffer(self):
        """Doubling the buffer absorbs bursts: drops fall, queueing grows."""
        rates = {}
        for buffer in (4, 12, 64):
            spec = registry.small_spec("congested_swarm").with_override(
                "transport.bottleneck_buffer", buffer
            )
            rates[buffer] = run(spec).metrics["queue_drop_rate"]
        assert rates[4] > rates[12] > rates[64]
        assert rates[4] > 0.3
        assert rates[64] < 0.1


class TestPolicyContrast:
    def test_aimd_beats_open_loop_under_contention(self):
        base = registry.small_spec("congested_swarm")
        aimd = run(base).metrics
        open_loop = run(
            base.with_override("transport.policy", "open_loop")
        ).metrics
        assert aimd["queue_drop_rate"] < open_loop["queue_drop_rate"]
        assert aimd["useful_fraction"] > open_loop["useful_fraction"]


class TestInformedVsRandom:
    """The paper's informed-choice advantage survives a congested core.

    Pinned on the default-size spec: the small grid cell is too tiny for
    the admission signal to separate from noise.
    """

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_informed_gap_positive(self, engine):
        base = specs.congested_swarm()
        if engine == "columnar":
            base = base.with_override("measurement.engine", "columnar")
        informed = run(base).metrics["useful_fraction"]
        random_ = run(
            base.with_override("reconfig.policy", "random")
        ).metrics["useful_fraction"]
        assert informed - random_ > 0.03


class TestValidation:
    def test_requires_a_transport_spec(self):
        spec = dataclasses.replace(specs.congested_swarm(), transport=None)
        with pytest.raises(SpecError, match="requires a transport spec"):
            build(spec)

    def test_requires_a_real_bottleneck(self):
        spec = dataclasses.replace(
            specs.congested_swarm(),
            transport=TransportSpec(policy="aimd", bottleneck_rate=0.0),
        )
        with pytest.raises(SpecError, match="bottleneck_rate > 0"):
            build(spec)

    def test_spec_constructor_validates_knobs(self):
        # No join waves is refused where the flash crowd reads them.
        with pytest.raises(SpecError):
            build(specs.congested_swarm(waves=0))
        with pytest.raises(SpecError):
            specs.congested_swarm(transport_policy="psychic")

    def test_registered_with_grid(self):
        grid = registry.small_grid("congested_swarm")
        assert set(grid) == {"transport.policy", "reconfig.policy"}
