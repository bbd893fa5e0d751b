"""The structured-topology scenarios: scale_free_swarm and cdn_catalog.

Pins the headline claims the registration advertises: informed rewiring
beats random on the scale-free overlay (at both engines), the CDN
catalog completes with demand-rank-ordered finishing times, and the
reference and columnar engines agree metric-for-metric on both.
"""

import pytest

from repro.api import SpecError, build, registry, run, specs
from repro.campaign.expander import expand
from repro.campaign.spec import small_campaign


def _small(name, engine="reference"):
    return registry.small_spec(name).with_override("measurement.engine", engine)


class TestRegistration:
    @pytest.mark.parametrize("name", ["scale_free_swarm", "cdn_catalog"])
    def test_registered_with_spec_and_grid(self, name):
        entry = registry.get(name)
        assert entry.small_spec is not None
        assert entry.small_grid is not None

    def test_supports_declarations(self):
        assert "topology" in registry.get("scale_free_swarm").supports
        assert set(registry.get("cdn_catalog").supports) >= {"topology", "catalog"}

    @pytest.mark.parametrize("name", ["scale_free_swarm", "cdn_catalog"])
    def test_small_campaign_expands(self, name):
        cells = expand(small_campaign(name, seeds=1))
        assert len(cells) == 2


class TestScaleFreeSwarm:
    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_informed_beats_random(self, engine):
        result = run(_small("scale_free_swarm", engine))
        assert result.completed
        assert result.metrics["informed_useful_gain"] > 0
        assert (
            result.metrics["useful_fraction[informed]"]
            > result.metrics["useful_fraction[random]"]
        )

    def test_engine_parity(self):
        ref = run(_small("scale_free_swarm", "reference"))
        col = run(_small("scale_free_swarm", "columnar"))
        assert ref.metrics == col.metrics
        assert ref.completed == col.completed

    def test_hub_load_series_recorded(self):
        result = run(_small("scale_free_swarm"))
        entities = set(result.stats.entities())
        assert {"hub_load[random]", "hub_load[informed]"} <= entities

    def test_rejects_wrong_reconfig_policy(self):
        spec = specs.scale_free_swarm().with_override("reconfig.policy", "static")
        with pytest.raises(SpecError, match="informed"):
            build(spec)

    def test_requires_topology(self):
        spec = specs.scale_free_swarm().with_component_spec("topology", None)
        with pytest.raises(SpecError, match="topology"):
            build(spec)


class TestCdnCatalog:
    def test_completes_with_rank_ordered_tail(self):
        result = run(_small("cdn_catalog"))
        assert result.completed
        ranks = sorted(k for k in result.metrics if k.startswith("completion_rank"))
        assert len(ranks) >= 2
        # The unpopular tail (origin-only objects) finishes after every
        # cache-warmed rank.
        cached = [result.metrics[r] for r in ranks[:-1]]
        assert result.metrics[ranks[-1]] > max(cached)
        assert result.metrics["useful_fraction"] > 0.2

    def test_engine_parity(self):
        ref = run(_small("cdn_catalog", "reference"))
        col = run(_small("cdn_catalog", "columnar"))
        assert ref.metrics == col.metrics
        assert ref.completed == col.completed

    def test_informed_beats_random_rewiring(self):
        base = registry.small_spec("cdn_catalog")
        informed = run(base)
        random_arm = run(base.with_component("reconfig", "random", interval=4.0))
        assert informed.completed and random_arm.completed
        assert informed.metrics["ticks"] < random_arm.metrics["ticks"]

    def test_requires_catalog(self):
        spec = specs.cdn_catalog().with_component_spec("catalog", None)
        with pytest.raises(SpecError, match="catalog"):
            build(spec)

    def test_requires_cdn_tiers_topology(self):
        spec = specs.cdn_catalog().with_component("topology", "ring")
        with pytest.raises(SpecError, match="cdn_tiers"):
            build(spec)


class TestComponentGating:
    def test_topology_rejected_on_fixed_overlay_scenarios(self):
        spec = specs.pair_transfer().with_component("topology", "ring")
        with pytest.raises(SpecError, match="fixed overlay"):
            build(spec)

    def test_catalog_rejected_on_single_object_scenarios(self):
        spec = specs.flash_crowd().with_component("catalog", objects=2)
        with pytest.raises(SpecError, match="single object"):
            build(spec)

    def test_rejection_names_supporting_scenarios(self):
        spec = specs.flash_crowd().with_component("catalog", objects=2)
        with pytest.raises(SpecError, match="cdn_catalog"):
            build(spec)
