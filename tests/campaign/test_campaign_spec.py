"""CampaignSpec: validation, JSON round-trips, and override paths."""

import dataclasses
import re

import pytest

from repro.api import specs
from repro.api.spec import SpecError
from repro.campaign import CampaignSpec, GridAxis, small_campaign


def _base(**kwargs):
    kwargs.setdefault("target", 120)
    kwargs.setdefault("correlation", 0.2)
    kwargs.setdefault("seed", 5)
    return specs.pair_transfer(**kwargs)


class TestGridAxis:
    def test_requires_values(self):
        with pytest.raises(SpecError, match="GridAxis.values must be non-empty"):
            GridAxis("strategy.name", ())

    def test_rejects_seed_axis(self):
        with pytest.raises(SpecError, match="'seed' cannot be a grid axis"):
            GridAxis("seed", (1, 2))

    @pytest.mark.parametrize(
        "key, values, repeated",
        [
            ("params.correlation", (0.1, 0.1), "0.1"),
            ("swarm.target", (60, 80, 60.0), "60.0"),
            ("strategy.name", ("Recode", "Random", "Recode"), "'Recode'"),
        ],
    )
    def test_rejects_a_repeated_value(self, key, values, repeated):
        # Equal values would expand to the same cell, run and counted twice.
        with pytest.raises(
            SpecError, match=re.escape(f"grid axis {key!r} repeats the value {repeated}")
        ):
            GridAxis(key, values)

    def test_rejects_non_scalar_values(self):
        with pytest.raises(SpecError, match="JSON scalar"):
            GridAxis("strategy.name", (["a", "b"],))

    def test_rejects_empty_key(self):
        with pytest.raises(SpecError, match="non-empty"):
            GridAxis("", (1,))


class TestCampaignSpecValidation:
    def test_duplicate_grid_keys_rejected(self):
        with pytest.raises(SpecError, match="duplicate grid key 'strategy.name'"):
            CampaignSpec(
                base=_base(),
                grid=(
                    GridAxis("strategy.name", ("Random",)),
                    GridAxis("strategy.name", ("Recode/BF",)),
                ),
            )

    def test_unknown_override_path_rejected(self):
        with pytest.raises(SpecError, match="does not apply to the base spec"):
            CampaignSpec(base=_base(), grid=(GridAxis("strategy.nope", (1,)),))

    def test_out_of_range_value_rejected(self):
        # Every axis value must apply to the base on its own.
        with pytest.raises(SpecError, match="does not apply to the base spec"):
            CampaignSpec(base=_base(), grid=(GridAxis("swarm.target", (100, -3)),))

    def test_seeds_must_be_positive_integer(self):
        with pytest.raises(SpecError, match=">= 1"):
            CampaignSpec(base=_base(), seeds=0)
        with pytest.raises(SpecError, match="integer"):
            CampaignSpec(base=_base(), seeds=1.5)

    def test_cell_counts(self):
        campaign = CampaignSpec(
            base=_base(),
            grid=(
                GridAxis("params.correlation", (0.0, 0.2, 0.4)),
                GridAxis("strategy.name", ("Random", "Recode/BF")),
            ),
            seeds=3,
        )
        assert campaign.grid_cells == 6
        assert campaign.total_cells == 18

    def test_empty_grid_is_seeds_only(self):
        campaign = CampaignSpec(base=_base(), seeds=4)
        assert campaign.grid_cells == 1
        assert campaign.total_cells == 4

    def test_axis_lookup(self):
        campaign = CampaignSpec(
            base=_base(), grid=(GridAxis("strategy.name", ("Random",)),)
        )
        assert campaign.axis("strategy.name").values == ("Random",)
        with pytest.raises(SpecError, match="no grid axis"):
            campaign.axis("params.correlation")


class TestCampaignSpecJson:
    def _campaign(self):
        return CampaignSpec(
            base=_base(),
            grid=(
                GridAxis("params.correlation", (0.0, 0.3)),
                GridAxis("strategy.name", ("Random", "Recode/BF")),
            ),
            seeds=2,
            name="roundtrip",
        )

    def test_round_trips_losslessly(self):
        campaign = self._campaign()
        assert CampaignSpec.from_json(campaign.to_json()) == campaign

    def test_schema_tag_stamped_and_checked(self):
        data = self._campaign().to_dict()
        assert data["schema"] == "repro.campaign_spec/1"
        data["schema"] = "repro.campaign_spec/99"
        with pytest.raises(SpecError, match="schema"):
            CampaignSpec.from_dict(data)

    def test_missing_base_rejected(self):
        with pytest.raises(SpecError, match="missing the 'base' key"):
            CampaignSpec.from_dict({"grid": []})

    def test_unknown_keys_rejected(self):
        data = self._campaign().to_dict()
        data["cells"] = 7
        with pytest.raises(SpecError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(data)

    def test_malformed_grid_rejected(self):
        data = self._campaign().to_dict()
        data["grid"] = "not-a-grid"
        with pytest.raises(SpecError, match="'grid' must be an array"):
            CampaignSpec.from_dict(data)
        data["grid"] = [{"key": "strategy.name"}]
        with pytest.raises(SpecError, match="GridAxis.values must be non-empty"):
            CampaignSpec.from_dict(data)
        data["grid"] = [{"key": "strategy.name", "values": ["Random"], "extra": 1}]
        with pytest.raises(SpecError, match="unknown grid axis keys"):
            CampaignSpec.from_dict(data)

    def test_not_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            CampaignSpec.from_json("{broken")


class TestWithOverride:
    def test_scalar_paths_reach_every_layer(self):
        spec = _base()
        assert spec.with_override("swarm.target", 240).swarm.target == 240
        assert spec.with_override("strategy.name", "Random").strategy.name == "Random"
        assert spec.with_override("params.correlation", 0.4).param("correlation") == 0.4
        assert spec.with_override("measurement.max_ticks", 99).measurement.max_ticks == 99
        assert spec.with_override("seed", 17).seed == 17

    def test_none_component_instantiated_with_defaults(self):
        spec = _base()
        assert spec.strategy.summary is None
        overridden = spec.with_override("strategy.summary.kind", "art")
        assert overridden.strategy.summary.kind == "art"
        assert spec.churn is None
        assert spec.with_override("churn.depart_at", 3.0).churn.depart_at == 3.0

    def test_summary_params_path(self):
        spec = _base().with_override("strategy.summary.kind", "bloom")
        overridden = spec.with_override("strategy.summary.params.bits_per_element", 16)
        assert overridden.strategy.summary.param("bits_per_element") == 16

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="has no field 'nope'"):
            _base().with_override("strategy.nope", 1)

    def test_array_field_rejected(self):
        spec = specs.flash_crowd(num_peers=10, target=40, initial_seeded=2,
                                 waves=2, wave_interval=5, seed=1)
        with pytest.raises(SpecError, match="is an array"):
            spec.with_override("swarm.nodes", "x")

    def test_invalid_value_folds_into_spec_error(self):
        with pytest.raises(SpecError):
            _base().with_override("swarm.target", -5)
        with pytest.raises(SpecError, match="JSON scalar"):
            _base().with_override("strategy.name", ["Random"])


class TestSmallCampaign:
    def test_registered_grid_used(self):
        campaign = small_campaign("pair_transfer")
        assert campaign.total_cells == 4  # 2 correlations x 2 seeds
        assert campaign.name == "pair_transfer-small"

    def test_gridless_scenario_gets_seeds_only_campaign(self):
        campaign = small_campaign("flash_crowd", seeds=3)
        assert campaign.grid == ()
        assert campaign.total_cells == 3

    def test_campaign_base_is_the_small_spec(self):
        from repro.api import registry

        campaign = small_campaign("pair_transfer")
        assert campaign.base == registry.small_spec("pair_transfer")
