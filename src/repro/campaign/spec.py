"""Frozen, JSON-round-trippable campaign specifications.

A :class:`CampaignSpec` is the declarative description of a parameter
sweep: one base :class:`~repro.api.ExperimentSpec`, a grid of
:class:`GridAxis` overrides (dotted spec paths — the same syntax as
:meth:`ExperimentSpec.with_override` — crossed in declaration order),
and a replicate-seed range.  Like experiment specs, campaign specs are
immutable values that round-trip through JSON losslessly, so a
campaign file *is* the figure sweep: it can be diffed, archived, and
re-expanded into the exact same cells on any machine.

Expansion into concrete cells lives in :mod:`repro.campaign.expander`;
execution in :mod:`repro.campaign.executor`.
"""

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api import registry
from repro.api.spec import (
    CheckedSpec,
    ExperimentSpec,
    SpecError,
    _require,
    bounded,
    read_json,
)

#: Schema tag stamped into every serialised campaign spec.
CAMPAIGN_SPEC_SCHEMA = "repro.campaign_spec/1"


@dataclass(frozen=True)
class GridAxis(CheckedSpec):
    """One sweep dimension: a dotted override path and its values.

    ``key`` uses :meth:`ExperimentSpec.with_override` syntax
    (``"params.correlation"``, ``"strategy.name"``,
    ``"swarm.target"``...); ``values`` are the distinct JSON scalars the
    sweep crosses.  ``"seed"`` is not a legal axis — replicate seeds come
    from the campaign's seed range and are derived per cell.
    """

    key: str = bounded(nonempty=True)
    values: Tuple[Any, ...] = bounded((), nonempty=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.key != "seed" and not self.key.startswith("seed."),
            "'seed' cannot be a grid axis; use the campaign's seeds range "
            "(cell seeds are derived per trial)",
        )
        # Cells are matched to their values with ``==``, so two equal
        # values would be one run done, and counted, twice.
        for i, value in enumerate(self.values):
            _require(
                value not in self.values[:i],
                f"grid axis {self.key!r} repeats the value {value!r}",
            )


@dataclass(frozen=True)
class CampaignSpec(CheckedSpec):
    """The complete declarative description of one parameter sweep.

    ``seeds`` replicates every grid cell that many times; each
    replicate's master seed is derived from ``base.seed``, the cell's
    override assignment, and the trial index via
    :func:`repro.seeding.derive_seed`, so the whole campaign replays
    bit-identically across processes and machines.  An empty grid is a
    legal campaign of ``seeds`` replicates of the base spec.
    """

    base: ExperimentSpec
    grid: Tuple[GridAxis, ...] = ()
    seeds: int = bounded(1, ge=1)
    name: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        seen = set()
        for axis in self.grid:
            _require(axis.key not in seen, f"duplicate grid key {axis.key!r}")
            seen.add(axis.key)
            # Every axis value must apply to the base on its own — a
            # ``params.*`` value within its scenario's declared bounds —
            # so a typo'd path or out-of-range value fails at spec time
            # (exit 2) instead of surfacing as per-cell error entries.
            for value in axis.values:
                try:
                    spec = self.base.with_override(axis.key, value)
                    if axis.key.startswith("params."):
                        registry.check_params(spec)
                except SpecError as exc:
                    raise SpecError(
                        f"grid axis {axis.key!r} value {value!r} does not "
                        f"apply to the base spec: {exc}"
                    ) from None

    @property
    def grid_cells(self) -> int:
        """Grid assignments before seed replication (empty grid -> 1)."""
        count = 1
        for axis in self.grid:
            count *= len(axis.values)
        return count

    @property
    def total_cells(self) -> int:
        """Concrete cells the campaign expands to."""
        return self.grid_cells * self.seeds

    def axis(self, key: str) -> GridAxis:
        """The grid axis named ``key`` (:class:`SpecError` if absent)."""
        for ax in self.grid:
            if ax.key == key:
                return ax
        raise SpecError(
            f"campaign has no grid axis {key!r}; axes: "
            f"{[ax.key for ax in self.grid]}"
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON-types dict; inverse of :meth:`from_dict`."""
        return {
            "schema": CAMPAIGN_SPEC_SCHEMA,
            "name": self.name,
            "seeds": self.seeds,
            "grid": [
                {"key": axis.key, "values": list(axis.values)} for axis in self.grid
            ],
            "base": self.base.to_dict(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        _require(isinstance(data, Mapping), "campaign spec must be a JSON object")
        known = {f.name for f in fields(cls)} | {"schema"}
        unknown = set(data) - known
        _require(
            not unknown,
            f"unknown campaign spec keys {sorted(unknown)}; expected a "
            f"subset of {sorted(known)}",
        )
        schema = data.get("schema", CAMPAIGN_SPEC_SCHEMA)
        _require(
            schema == CAMPAIGN_SPEC_SCHEMA,
            f"campaign spec schema is {schema!r}, expected "
            f"{CAMPAIGN_SPEC_SCHEMA!r}",
        )
        _require("base" in data, "campaign spec is missing the 'base' key")
        base = data["base"]
        _require(isinstance(base, Mapping), "campaign 'base' must be a JSON object")
        return cls(
            base=ExperimentSpec.from_dict(base),
            grid=tuple(_axis_from_dict(a) for a in _grid_list(data)),
            seeds=data.get("seeds", 1),
            name=data.get("name", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(read_json("campaign spec", text))


def _grid_list(data: Mapping[str, Any]) -> List[Mapping[str, Any]]:
    value = data.get("grid", ())
    _require(
        isinstance(value, (list, tuple)),
        "campaign 'grid' must be an array of {key, values} objects",
    )
    return list(value)


def _axis_from_dict(data: Any) -> GridAxis:
    _require(isinstance(data, Mapping), "grid axis must be a JSON object")
    unknown = set(data) - {"key", "values"}
    _require(
        not unknown,
        f"unknown grid axis keys {sorted(unknown)}; expected ['key', 'values']",
    )
    _require("key" in data, "grid axis is missing the 'key' key")
    values = data.get("values", ())
    _require(
        isinstance(values, (list, tuple)), "grid axis 'values' must be an array"
    )
    return GridAxis(key=data["key"], values=tuple(values))


def small_campaign(
    scenario_name: str, seeds: int = 2, require_grid: bool = False
) -> CampaignSpec:
    """A miniature but complete campaign for a registered scenario.

    Pairs the scenario's ``small_spec`` with its registered
    ``small_grid`` (a seeds-only campaign when it has none) — the
    campaign analogue of :func:`repro.api.registry.small_spec`, powering
    smoke tests and the ``--campaign-scenario`` CLI path.

    ``require_grid=True`` (the CLI's setting) refuses a scenario that
    registered no miniature grid instead of silently degrading to a
    seeds-only sweep: a user asking for that scenario's campaign is
    asking for a sweep nobody defined.
    """
    base = registry.small_spec(scenario_name)
    grid_map = registry.small_grid(scenario_name)
    if require_grid and not grid_map:
        with_grids = [
            n for n in registry.names() if registry.get(n).small_grid is not None
        ]
        raise SpecError(
            f"scenario {scenario_name!r} registered no miniature campaign grid; "
            f"scenarios with one: {', '.join(with_grids) or '(none)'} — or pass "
            f"a full CampaignSpec file via --campaign"
        )
    grid = tuple(
        GridAxis(key=key, values=tuple(values)) for key, values in grid_map.items()
    )
    return CampaignSpec(
        base=base, grid=grid, seeds=seeds, name=f"{scenario_name}-small"
    )


def campaign_spec_from_file(path: str) -> CampaignSpec:
    """Load a campaign spec from a JSON file (:class:`SpecError` on failure)."""
    return CampaignSpec.from_dict(read_json("campaign spec", path=path))


__all__ = [
    "CAMPAIGN_SPEC_SCHEMA",
    "GridAxis",
    "CampaignSpec",
    "small_campaign",
    "campaign_spec_from_file",
]
