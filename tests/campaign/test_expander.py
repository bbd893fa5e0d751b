"""Campaign expansion: deterministic cells, seeds, and ids."""

from repro.api import specs
from repro.campaign import CampaignSpec, GridAxis, expand


def _campaign(**kwargs):
    kwargs.setdefault(
        "grid",
        (
            GridAxis("params.correlation", (0.0, 0.3)),
            GridAxis("strategy.name", ("Random", "Recode/BF")),
        ),
    )
    kwargs.setdefault("seeds", 2)
    return CampaignSpec(
        base=specs.pair_transfer(target=120, correlation=0.2, seed=5), **kwargs
    )


class TestExpansion:
    def test_cross_product_in_declared_order(self):
        cells = expand(_campaign())
        assert len(cells) == 8
        assert [c.index for c in cells] == list(range(8))
        # Last axis fastest, trials innermost.
        assert cells[0].overrides == (
            ("params.correlation", 0.0), ("strategy.name", "Random"),
        )
        assert cells[0].trial == 0 and cells[1].trial == 1
        assert cells[2].overrides[1] == ("strategy.name", "Recode/BF")
        assert cells[4].overrides[0] == ("params.correlation", 0.3)

    def test_empty_grid_expands_to_seed_replicates(self):
        cells = expand(CampaignSpec(base=_campaign().base, seeds=3))
        assert len(cells) == 3
        assert all(c.overrides == () for c in cells)
        assert [c.trial for c in cells] == [0, 1, 2]

    def test_single_cell_campaign(self):
        cells = expand(CampaignSpec(base=_campaign().base))
        assert len(cells) == 1
        (cell,) = cells
        assert cell.spec is not None
        assert cell.spec.scenario == "pair_transfer"

    def test_expansion_is_deterministic(self):
        a, b = expand(_campaign()), expand(_campaign())
        assert a == b

    def test_overrides_applied_to_cell_specs(self):
        for cell in expand(_campaign()):
            overrides = dict(cell.overrides)
            assert cell.spec.param("correlation") == overrides["params.correlation"]
            assert cell.spec.strategy.name == overrides["strategy.name"]

    def test_cell_seeds_are_derived_distinct_and_installed(self):
        cells = expand(_campaign())
        seeds = [c.seed for c in cells]
        assert len(set(seeds)) == len(seeds)
        for cell in cells:
            assert cell.spec.seed == cell.seed

    def test_seed_depends_on_assignment_not_position(self):
        # Reordering an axis's values must not change the seed a given
        # (assignment, trial) pair receives — resume depends on it.
        flipped = CampaignSpec(
            base=_campaign().base,
            grid=(
                GridAxis("params.correlation", (0.3, 0.0)),
                GridAxis("strategy.name", ("Random", "Recode/BF")),
            ),
            seeds=2,
        )
        by_key = {(c.overrides, c.trial): c.seed for c in expand(_campaign())}
        for cell in expand(flipped):
            assert by_key[(cell.overrides, cell.trial)] == cell.seed

    def test_cell_ids_stable_and_unique(self):
        cells = expand(_campaign())
        ids = [c.cell_id for c in cells]
        assert len(set(ids)) == len(ids)
        assert ids == [c.cell_id for c in expand(_campaign())]
        assert all(c.cell_id.startswith(f"cell-{c.index:04d}-") for c in cells)

    def test_valid_grid_expands_with_no_cell_errors(self):
        cells = expand(_campaign())
        assert all(c.error is None and c.spec is not None for c in cells)
