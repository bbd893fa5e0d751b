"""Flow inputs that used to crash, hang or leak non-JSON floats.

Each case here ran to a bare traceback, never returned, or wrote
``Infinity`` into a result: non-finite population / reconfig floats, a
rate whose run-long traffic overflows a float, and an epoch interval the
clock cannot advance by.
"""

import json
import math
import random

import pytest

from repro.api import ExperimentSpec, SpecError, run, specs
from repro.api.registry import small_spec
from repro.flow import CohortDef, FlowSimulator


def _spec_dict():
    return json.loads(small_spec("population_flash_crowd").to_json())


NON_FINITE = [math.inf, -math.inf, math.nan]


class TestNonFiniteFloatsAreSpecErrors:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "section,field",
        [
            ("population", "zipf_skew"),
            ("population", "wave_interval"),
            ("population", "seeded_fraction"),
            ("population", "rate"),
            ("population", "loss_rate"),
            ("population", "rate_spread"),
            ("reconfig", "interval"),
            ("reconfig", "jitter"),
            ("reconfig", "min_usefulness"),
            ("reconfig", "hysteresis"),
        ],
    )
    def test_from_dict_refuses(self, section, field, value):
        data = _spec_dict()
        data[section][field] = value
        with pytest.raises(SpecError, match="finite"):
            ExperimentSpec.from_dict(data)

    def test_the_json_spelling_is_refused_too(self):
        text = small_spec("population_flash_crowd").to_json().replace(
            '"zipf_skew": 0.8', '"zipf_skew": Infinity'
        )
        assert "Infinity" in text
        with pytest.raises(SpecError, match="zipf_skew must be finite"):
            ExperimentSpec.from_json(text)


class TestRateOverflow:
    @pytest.mark.parametrize("rate", [1e308, 1e304])
    def test_a_rate_whose_run_traffic_overflows_is_refused(self, rate):
        data = _spec_dict()
        data["population"]["rate"] = rate
        with pytest.raises(SpecError, match="overflows"):
            ExperimentSpec.from_dict(data)

    def test_the_bound_follows_the_horizon(self):
        spec = small_spec("population_flash_crowd").with_override(
            "population.rate", 1e303
        )
        with pytest.raises(SpecError, match="overflows"):
            spec.with_override("measurement.max_ticks", 10**6)

    def test_a_huge_int_size_is_a_spec_error_not_an_overflow(self):
        with pytest.raises(SpecError, match="overflows"):
            specs.population_flash_crowd(population=10**400)

    def test_the_largest_accepted_rate_runs_to_finite_json(self):
        spec = small_spec("population_flash_crowd").with_override(
            "population.rate", 1e303
        )
        text = run(spec).to_json(include_series=True)
        assert "Infinity" not in text and "NaN" not in text


class TestAClockThatCannotAdvance:
    def test_flow_spec_with_an_absorbed_interval_raises(self):
        spec = small_spec("population_flash_crowd").with_override(
            "reconfig.interval", 1e-300
        )
        with pytest.raises(ValueError, match="cannot advance the clock"):
            run(spec)

    def test_packet_spec_with_an_absorbed_interval_raises(self):
        spec = specs.random_overlay(num_peers=8, target=120, seed=17).with_override(
            "reconfig.interval", 1e-300
        )
        with pytest.raises(ValueError, match="cannot advance the clock"):
            run(spec)

    def test_flow_simulator_refuses_it_directly(self):
        sim = FlowSimulator(
            [CohortDef("a", 0, 4, demand=10, distinct=12)],
            rate=2.0, interval=1e-300, rng=random.Random(1),
        )
        with pytest.raises(ValueError, match="cannot advance the clock"):
            sim.run(max_ticks=100)

    @pytest.mark.parametrize("field", ["rate", "interval"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan"])
    def test_flow_simulator_refuses_non_finite_rate_and_interval(self, field, value):
        kwargs = {"rate": 2.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            FlowSimulator([CohortDef("a", 0, 4, demand=10, distinct=12)], **kwargs)


class TestSlotAndScanCounts:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("scan_budget", 2.5),  # a TypeError at the first epoch
            ("scan_budget", -1),  # a ValueError from random.sample mid-run
            ("scan_budget", True),  # silently scanned one candidate
            ("scan_budget", math.nan),  # silently scanned everyone
            ("max_connections", 2.5),
            ("max_connections", -1),
            ("max_connections", True),
        ],
    )
    def test_flow_simulator_refuses_a_non_int(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int >= 0"):
            FlowSimulator(
                [CohortDef("a", 0, 4, demand=10, distinct=12)],
                rate=2.0,
                **{field: value},
            )

    def test_zero_is_accepted(self):
        sim = FlowSimulator(
            [CohortDef("a", 0, 4, demand=10, distinct=12)],
            rate=2.0, scan_budget=0, max_connections=0,
        )
        assert (sim.scan_budget, sim.max_connections) == (0, 0)
