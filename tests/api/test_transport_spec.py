"""TransportSpec: validation, overrides, CLI parsing, and parity pins.

The tentpole contract of the transport subsystem:

* ``TransportSpec`` is a frozen JSON-round-trippable component of
  :class:`~repro.api.ExperimentSpec`, addressable through
  ``with_override`` dotted paths and sweepable in campaigns;
* with ``transport`` unset, every scenario's seeded run is
  bit-identical to the pre-transport behaviour (see also
  tests/api/test_api_parity.py, which this suite leaves untouched);
* the ``open_loop`` policy without a bottleneck matches the unset
  baseline's packet accounting exactly;
* a spec that validates always builds — bad policies, params, and
  bounds are caught at construction, not mid-run.
"""

import dataclasses

import pytest

from repro.api import ExperimentSpec, SpecError, TransportSpec, run, specs
from repro.api.__main__ import parse_component_arg


class TestTransportSpecValue:
    def test_defaults_are_the_open_loop_arm(self):
        ts = TransportSpec()
        assert ts.policy == "open_loop"
        assert ts.bottleneck_rate == 0.0
        assert ts.params == ()

    def test_params_freeze_sorted(self):
        ts = TransportSpec(policy="aimd", params={"beta": 0.7, "cwnd_init": 4})
        assert ts.params == (("beta", 0.7), ("cwnd_init", 4))
        assert ts.param("beta") == 0.7
        assert ts.params_dict() == {"beta": 0.7, "cwnd_init": 4}

    def test_unknown_policy_is_a_spec_error(self):
        with pytest.raises(SpecError, match="unknown transport policy"):
            TransportSpec(policy="psychic")

    def test_bad_policy_params_are_a_spec_error(self):
        with pytest.raises(SpecError):
            TransportSpec(policy="aimd", params={"beta": 2.0})
        with pytest.raises(SpecError):
            TransportSpec(policy="aimd", params={"psychic": 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bottleneck_rate", -1.0),
            ("bottleneck_buffer", 0),
            ("rto_min", 0.0),
            ("rto_max", 1.0),  # below the default rto_min
        ],
    )
    def test_bad_bounds_rejected(self, field, value):
        with pytest.raises(SpecError):
            TransportSpec(**{field: value})


class TestExperimentSpecIntegration:
    def test_with_transport_builder(self):
        spec = specs.flash_crowd().with_transport(
            "aimd", params={"beta": 0.7}, bottleneck_rate=8.0
        )
        assert spec.transport.policy == "aimd"
        assert spec.transport.param("beta") == 0.7
        assert spec.transport.bottleneck_rate == 8.0

    def test_dotted_overrides_reach_transport(self):
        spec = specs.congested_swarm()
        out = (
            spec.with_override("transport.policy", "aimd")
            .with_override("transport.bottleneck_buffer", 64)
            .with_override("transport.params.beta", 0.7)
        )
        assert out.transport.policy == "aimd"
        assert out.transport.bottleneck_buffer == 64
        assert out.transport.param("beta") == 0.7

    def test_override_materialises_default_component(self):
        # transport.* on a spec without one starts from the defaults,
        # like the other defaultable components.
        spec = specs.flash_crowd().with_override("transport.policy", "aimd")
        assert spec.transport == TransportSpec(policy="aimd")

    @pytest.mark.parametrize("policy", ["psychic", "bbr_lite"])
    def test_override_validates(self, policy):
        with pytest.raises(SpecError, match="unknown transport policy"):
            specs.congested_swarm().with_override("transport.policy", policy)


class TestOpenLoopParity:
    def test_open_loop_matches_unset_packet_accounting(self):
        base = specs.flash_crowd(
            num_peers=10, target=40, initial_seeded=2, waves=2,
            wave_interval=5, seed=1,
        )
        baseline = run(base)
        open_loop = run(dataclasses.replace(base, transport=TransportSpec()))
        shared = {"ticks", "packets_sent", "packets_lost", "packets_useful",
                  "efficiency", "overhead"}
        for key in shared:
            assert open_loop.metrics[key] == baseline.metrics[key], key
        assert (
            open_loop.report.completion_ticks == baseline.report.completion_ticks
        )

    def test_transport_metrics_only_appear_when_selected(self):
        base = specs.flash_crowd(
            num_peers=10, target=40, initial_seeded=2, waves=2,
            wave_interval=5, seed=1,
        )
        assert not any(
            k.startswith(("transport_", "queue_")) for k in run(base).metrics
        )
        with_t = run(dataclasses.replace(base, transport=TransportSpec()))
        assert "transport_tracked" in with_t.metrics


class TestCliParsing:
    def test_policy_and_params(self):
        ts = parse_component_arg("transport", "aimd:beta=0.7,bottleneck_rate=12,rto_min=1.5")
        assert ts == TransportSpec(
            policy="aimd", params={"beta": 0.7},
            bottleneck_rate=12, rto_min=1.5,
        )

    def test_bare_policy(self):
        assert parse_component_arg("transport", "open_loop") == TransportSpec()

    def test_malformed_input_is_a_spec_error(self):
        with pytest.raises(SpecError):
            parse_component_arg("transport", ":beta=0.7")
        with pytest.raises(SpecError):
            parse_component_arg("transport", "aimd:beta")
        with pytest.raises(SpecError):
            parse_component_arg("transport", "psychic")
