"""Spec dataclasses: validation, immutability, and JSON round-trips."""

import dataclasses
import json

import pytest

from repro.api import (
    ChurnSpec,
    ExperimentSpec,
    LinkRuleSpec,
    LinkSpec,
    MeasurementSpec,
    NodeSpec,
    SpecError,
    StrategySpec,
    SwarmSpec,
    build,
    specs,
)

#: Every catalog spec constructor, with cheap arguments.
CATALOG = {
    "flash_crowd": lambda: specs.flash_crowd(num_peers=10, initial_seeded=2, seed=3),
    "source_departure": lambda: specs.source_departure(num_peers=5, seed=4),
    "asymmetric_bandwidth": lambda: specs.asymmetric_bandwidth(
        num_fast=2, num_slow=2, seed=5
    ),
    "correlated_regional_loss": lambda: specs.correlated_regional_loss(
        peers_per_region=2, seed=6
    ),
    "pair_transfer": lambda: specs.pair_transfer(
        target=100, correlation=0.2, seed=7, symbols_desired=60
    ),
    "multi_sender_transfer": lambda: specs.multi_sender_transfer(
        target=100, correlation=0.1, num_senders=3, seed=8
    ),
    "session_swarm": lambda: specs.session_swarm(num_receivers=2, seed=9),
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_specs_round_trip_losslessly(self, name):
        spec = CATALOG[name]()
        assert spec.scenario == name
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        # And the dict form is genuinely plain JSON types.
        json.dumps(spec.to_dict())

    def test_round_trip_is_stable_under_reserialisation(self):
        spec = CATALOG["correlated_regional_loss"]()
        once = ExperimentSpec.from_json(spec.to_json())
        twice = ExperimentSpec.from_json(once.to_json())
        assert once == twice == spec
        assert once.to_json() == spec.to_json()

    def test_params_survive_as_scalars(self):
        spec = specs.pair_transfer(correlation=0.3, full_senders=1, seed=1)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.param("correlation") == 0.3
        assert restored.param("full_senders") == 1
        assert restored.params_dict() == spec.params_dict()


class TestValidation:
    def test_specs_are_frozen(self):
        spec = CATALOG["flash_crowd"]()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99

    def test_unknown_link_kind_rejected(self):
        with pytest.raises(SpecError, match="LinkSpec.kind must be one of"):
            LinkSpec(kind="teleport")

    def test_unknown_seeding_rule_rejected(self):
        with pytest.raises(SpecError, match="NodeSpec.seeding must be one of"):
            NodeSpec(seeding="everything")

    def test_negative_count_rejected(self):
        with pytest.raises(SpecError, match="non-negative"):
            NodeSpec(count=-1)

    def test_bad_measurement_rejected(self):
        with pytest.raises(SpecError):
            MeasurementSpec(max_ticks=0)
        with pytest.raises(SpecError):
            MeasurementSpec(resolution=0.0)

    def test_unknown_top_level_key_rejected(self):
        data = CATALOG["flash_crowd"]().to_dict()
        data["swrm"] = data.pop("swarm")
        with pytest.raises(SpecError, match="unknown spec keys"):
            ExperimentSpec.from_dict(data)

    def test_unknown_nested_key_rejected(self):
        data = CATALOG["flash_crowd"]().to_dict()
        data["strategy"]["nam"] = "Random"
        with pytest.raises(SpecError, match="StrategySpec"):
            ExperimentSpec.from_dict(data)

    def test_missing_scenario_rejected(self):
        with pytest.raises(SpecError, match="scenario"):
            ExperimentSpec.from_dict({"seed": 3})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")

    def test_non_scalar_param_rejected(self):
        with pytest.raises(SpecError, match="JSON scalar"):
            ExperimentSpec(scenario="x", params={"bad": [1, 2]})

    def test_flash_crowd_requires_a_joiner(self):
        spec = specs.flash_crowd(num_peers=4, initial_seeded=4)
        with pytest.raises(SpecError, match="non-seeded"):
            build(spec)


class TestAccessors:
    def test_param_default(self):
        spec = ExperimentSpec(scenario="x", params={"a": 1})
        assert spec.param("a") == 1
        assert spec.param("b", 7) == 7

    def test_with_params_merges(self):
        spec = ExperimentSpec(scenario="x", params={"a": 1})
        updated = spec.with_params(a=2, b=3)
        assert updated.param("a") == 2 and updated.param("b") == 3
        assert spec.param("a") == 1  # original untouched

    def test_member_ids_source_singleton(self):
        assert NodeSpec(name="src", count=1, role="source").member_ids() == ("src",)
        assert NodeSpec(name="p", count=2).member_ids() == ("p0", "p1")

    def test_swarm_group_lookup_error_names_groups(self):
        swarm = SwarmSpec(nodes=(NodeSpec(name="a"),))
        with pytest.raises(SpecError, match="'a'"):
            swarm.group("z")

    def test_link_rule_first_match_wins(self):
        fast = LinkSpec(rate=4.0)
        slow = LinkSpec(rate=0.5)
        swarm = SwarmSpec(
            links=(
                LinkRuleSpec(sender_class="fast", link=fast),
                LinkRuleSpec(link=slow),
            )
        )
        assert swarm.link_for("fast", "slow").rate == 4.0
        assert swarm.link_for("slow", "fast").rate == 0.5
        assert SwarmSpec().link_for("fast", "slow") is None

    def test_distinct_symbols_matches_legacy_arithmetic(self):
        assert SwarmSpec(target=100, distinct_multiplier=1.2).distinct_symbols == 120
        assert SwarmSpec(target=120, distinct_multiplier=1.3).distinct_symbols == 156

    def test_components_have_sensible_defaults(self):
        spec = ExperimentSpec(scenario="x")
        assert spec.strategy == StrategySpec()
        assert spec.measurement == MeasurementSpec()
        assert spec.churn is None and spec.swarm is None
        assert ChurnSpec().join_waves == 0


class TestDeserialisationTypeErrors:
    """Wrong-typed JSON values surface as SpecError, not raw tracebacks."""

    def test_wrong_typed_component_value(self):
        data = CATALOG["flash_crowd"]().to_dict()
        data["measurement"]["max_ticks"] = "100"
        with pytest.raises(SpecError, match="max_ticks must be an integer"):
            ExperimentSpec.from_dict(data)

    def test_non_integer_seed(self):
        with pytest.raises(SpecError, match="seed"):
            ExperimentSpec.from_dict({"scenario": "x", "seed": "abc"})

    def test_wrong_typed_swarm_value(self):
        data = CATALOG["source_departure"]().to_dict()
        data["swarm"]["target"] = "many"
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(data)

    def test_malformed_nodes_links_params_fold_into_spec_error(self):
        base = CATALOG["flash_crowd"]().to_dict()
        for corrupt in (
            {"swarm": {**base["swarm"], "nodes": 5}},
            {"swarm": {**base["swarm"], "links": 3}},
            {"params": "ab"},
            {"params": [1, 2]},
        ):
            data = {**base, **corrupt}
            with pytest.raises(SpecError):
                ExperimentSpec.from_dict(data)

    def test_out_of_range_link_parameters_rejected(self):
        with pytest.raises(SpecError, match="p_good_bad"):
            LinkSpec(kind="gilbert_elliott", p_good_bad=1.5)
        with pytest.raises(SpecError, match="latency"):
            LinkSpec(latency=-3.0)
        with pytest.raises(SpecError, match="jitter"):
            LinkSpec(kind="latency_jitter", jitter=-1.0)

    def test_non_integral_seed_rejected(self):
        with pytest.raises(SpecError, match="seed"):
            ExperimentSpec.from_dict({"scenario": "x", "seed": 7.9})
        with pytest.raises(SpecError, match="seed"):
            ExperimentSpec.from_dict({"scenario": "x", "seed": True})

    def test_duplicate_param_keys_rejected(self):
        with pytest.raises(SpecError, match="duplicate param key"):
            ExperimentSpec(scenario="x", params=[("a", 1), ("a", 2)])

    def test_tiny_uniform_seeding_yields_empty_sets(self):
        # A fraction too small to seed one symbol must not crash run().
        from repro.api import run

        spec = specs.asymmetric_bandwidth(num_fast=2, num_slow=2, target=2, seed=1)
        assert run(spec).completed

    def test_float_count_rejected(self):
        with pytest.raises(SpecError, match="NodeSpec.count must be an integer"):
            NodeSpec(count=7.5)
        data = CATALOG["flash_crowd"]().to_dict()
        data["swarm"]["nodes"][0]["count"] = 1.5
        with pytest.raises(SpecError, match="integer"):
            ExperimentSpec.from_dict(data)

    def test_link_bounds_match_constructors(self):
        # What validates must build: bounds mirror the link models.
        from repro.api.builders import _build_link

        with pytest.raises(SpecError, match="loss_rate"):
            LinkSpec(loss_rate=1.0)
        with pytest.raises(SpecError, match=r"p_bad_good of a gilbert_elliott link must be in \(0, 1\]"):
            LinkSpec(kind="gilbert_elliott", p_bad_good=0.0)
        _build_link(LinkSpec(kind="gilbert_elliott"), {})  # defaults build

    def test_session_swarm_max_time_must_be_whole(self):
        with pytest.raises(SpecError, match="whole number"):
            specs.session_swarm(max_time=500.75)
