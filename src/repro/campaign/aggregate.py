"""Campaign aggregation: per-cell outcomes into one CampaignResult.

:class:`CampaignResult` is the campaign analogue of
:class:`~repro.api.RunResult`: one versioned JSON schema
(:data:`CAMPAIGN_RESULT_SCHEMA`) holding every cell's outcome — the
serialised ``repro.run_result/1`` payload for cells that ran, an error
entry for cells that crashed (failure isolation: one bad cell never
costs the campaign) — plus grouped per-axis series so a figure grid
can be read straight off the file.

Serialisation is fully deterministic: no wall-clock timestamps, cells
in index order, sorted keys — the ``workers=1`` JSON is byte-identical
to a sequential :func:`repro.api.run` loop over the same cells, and
parallel runs produce the same bytes as serial ones.
"""

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api import registry
from repro.api.registry import UnknownScenarioError
from repro.api.result import (
    ResultSchemaError,
    _schema_require,
    validate_result_dict,
)
from repro.api.spec import SpecError
from repro.campaign.expander import expand
from repro.campaign.spec import CampaignSpec

#: Schema tag stamped into every serialised campaign result.
CAMPAIGN_RESULT_SCHEMA = "repro.campaign_result/1"

#: The exact key set a serialised cell outcome carries.
_CELL_KEYS = {"index", "cell_id", "overrides", "trial", "seed", "status"}
_CELL_STATUS = ("ok", "error")


@dataclass
class CellOutcome:
    """One cell's outcome: its identity plus a result or an error."""

    index: int
    cell_id: str
    overrides: Tuple[Tuple[str, Any], ...]
    trial: int
    seed: int
    status: str  # "ok" | "error"
    #: ``repro.run_result/1`` payload (status "ok").
    result: Optional[Dict[str, Any]] = None
    #: ``"ExceptionType: message"`` (status "error").
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def completed(self) -> bool:
        """The cell ran and its experiment reached completion."""
        return self.ok and bool(self.result and self.result.get("completed"))

    def metric(self, name: str) -> Optional[float]:
        """A metric from the cell's result, or None when unavailable."""
        if not self.ok or not self.result:
            return None
        return self.result.get("metrics", {}).get(name)

    def override(self, key: str, default: Any = None) -> Any:
        for k, v in self.overrides:
            if k == key:
                return v
        return default

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "cell_id": self.cell_id,
            "overrides": {k: v for k, v in self.overrides},
            "trial": self.trial,
            "seed": self.seed,
            "status": self.status,
        }
        if self.status == "ok":
            out["result"] = self.result
        else:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "CellOutcome":
        """Rebuild (and validate) a serialised cell outcome.

        Raises :class:`~repro.api.result.ResultSchemaError` on schema
        drift — ``--resume`` uses this to decide whether an on-disk
        cell can be trusted or must be re-run.
        """
        _schema_require(isinstance(data, dict), "cell outcome must be a JSON object")
        status = data.get("status")
        _schema_require(
            status in _CELL_STATUS,
            f"cell status is {status!r}, expected one of {_CELL_STATUS}",
        )
        payload_key = "result" if status == "ok" else "error"
        expected = _CELL_KEYS | {payload_key}
        missing = expected - set(data)
        unknown = set(data) - expected
        _schema_require(not missing, f"cell outcome is missing keys {sorted(missing)}")
        _schema_require(
            not unknown, f"cell outcome has unknown keys {sorted(unknown)}"
        )
        _schema_require(
            isinstance(data["overrides"], dict), "cell 'overrides' must be an object"
        )
        for key in ("index", "trial", "seed"):
            _schema_require(
                isinstance(data[key], int) and not isinstance(data[key], bool),
                f"cell {key!r} must be an integer",
            )
        _schema_require(isinstance(data["cell_id"], str), "cell_id must be a string")
        if status == "ok":
            validate_result_dict(data["result"])
        else:
            _schema_require(
                isinstance(data["error"], str), "cell 'error' must be a string"
            )
        return cls(
            index=data["index"],
            cell_id=data["cell_id"],
            overrides=tuple(data["overrides"].items()),
            trial=data["trial"],
            seed=data["seed"],
            status=status,
            result=data.get("result"),
            error=data.get("error"),
        )


@dataclass
class CampaignResult:
    """The structured outcome of one campaign run."""

    campaign: CampaignSpec
    cells: List[CellOutcome] = field(default_factory=list)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_ok(self) -> int:
        return sum(1 for c in self.cells if c.ok)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)

    @property
    def n_completed(self) -> int:
        return sum(1 for c in self.cells if c.completed)

    @property
    def failures(self) -> List[CellOutcome]:
        return [c for c in self.cells if not c.ok]

    def cell_groups(
        self, *keys: str
    ) -> Dict[Tuple[Any, ...], List[CellOutcome]]:
        """Cells grouped by their values on the given grid axes.

        The campaign analogue of a figure's (x, legend) grouping: e.g.
        ``cell_groups("params.correlation", "strategy.name")`` returns
        one cell list (the seed replicates) per figure point.
        """
        groups: Dict[Tuple[Any, ...], List[CellOutcome]] = {}
        for cell in self.cells:
            group = tuple(cell.override(k) for k in keys)
            groups.setdefault(group, []).append(cell)
        return groups

    def mean_metric(self, cells: List[CellOutcome], metric: str) -> Optional[float]:
        """Mean of ``metric`` over the completed cells (None when empty)."""
        values = [c.metric(metric) for c in cells if c.completed]
        values = [v for v in values if v is not None]
        if not values:
            return None
        return sum(values) / len(values)

    def grouped_series(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-axis marginal means of every metric, for the serialised form.

        ``{axis key: {axis value (as JSON string): {metric: mean over
        completed cells holding that value}}}`` — the quick-look
        summary a plot script can read without touching the cells.
        """
        series: Dict[str, Dict[str, Dict[str, float]]] = {}
        for axis in self.campaign.grid:
            by_value: Dict[str, Dict[str, float]] = {}
            for value in axis.values:
                cells = [
                    c
                    for c in self.cells
                    if c.completed and c.override(axis.key) == value
                ]
                metrics: Dict[str, List[float]] = {}
                for cell in cells:
                    for name, metric_value in cell.result["metrics"].items():
                        metrics.setdefault(name, []).append(metric_value)
                by_value[json.dumps(value)] = {
                    name: sum(vals) / len(vals)
                    for name, vals in sorted(metrics.items())
                }
            series[axis.key] = by_value
        return series

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The versioned campaign schema (:data:`CAMPAIGN_RESULT_SCHEMA`)."""
        return {
            "schema": CAMPAIGN_RESULT_SCHEMA,
            "campaign": self.campaign.to_dict(),
            "summary": {
                "cells": self.n_cells,
                "ok": self.n_ok,
                "failed": self.n_failed,
                "completed": self.n_completed,
            },
            "series": self.grouped_series(),
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Any) -> "CampaignResult":
        """Rebuild (and validate) a serialised campaign result."""
        return validate_campaign_dict(data)


def validate_campaign_dict(data: Any) -> CampaignResult:
    """Validate a dict against :data:`CAMPAIGN_RESULT_SCHEMA` (closed-world)
    and return the :class:`CampaignResult` it parsed — once.

    Beyond the shape, the file must agree with itself: its cells are
    exactly the ones its campaign expands to (index, cell id,
    overrides, trial and seed, in order), and its ``summary`` and
    ``series`` are what those cells add up to.  Raises
    :class:`~repro.api.result.ResultSchemaError` on any disagreement.
    """
    _schema_require(isinstance(data, dict), "campaign result must be a JSON object")
    _schema_require(
        data.get("schema") == CAMPAIGN_RESULT_SCHEMA,
        f"campaign result schema is {data.get('schema')!r}, expected "
        f"{CAMPAIGN_RESULT_SCHEMA!r}",
    )
    expected = {"schema", "campaign", "summary", "series", "cells"}
    missing = expected - set(data)
    unknown = set(data) - expected
    _schema_require(not missing, f"campaign result is missing keys {sorted(missing)}")
    _schema_require(
        not unknown,
        f"campaign result has unknown keys {sorted(unknown)} (schema drift?)",
    )
    _schema_require(
        isinstance(data["campaign"], dict), "campaign result 'campaign' must be an object"
    )
    try:
        campaign = CampaignSpec.from_dict(data["campaign"])
        registry.get(campaign.base.scenario)
    except (SpecError, UnknownScenarioError) as exc:
        raise ResultSchemaError(f"campaign spec block: {exc}") from None
    _schema_require(
        isinstance(data["series"], dict), "campaign result 'series' must be an object"
    )
    summary = data["summary"]
    _schema_require(
        isinstance(summary, dict)
        and set(summary) == {"cells", "ok", "failed", "completed"}
        and all(
            isinstance(v, int) and not isinstance(v, bool) for v in summary.values()
        ),
        "campaign result 'summary' must count cells/ok/failed/completed",
    )
    cells = data["cells"]
    _schema_require(isinstance(cells, list), "campaign result 'cells' must be an array")
    # Counted before anything is expanded: a campaign of 10**12 seeds
    # would take forever to list.
    _schema_require(
        len(cells) == campaign.total_cells,
        f"campaign result holds {len(cells)} cells, its campaign expands "
        f"to {campaign.total_cells}",
    )
    outcomes = []
    for i, cell in enumerate(cells):
        try:
            outcomes.append(CellOutcome.from_dict(cell))
        except ResultSchemaError as exc:
            raise ResultSchemaError(f"cell {i}: {exc}") from None
    for i, (outcome, cell) in enumerate(zip(outcomes, expand(campaign))):
        _schema_require(
            (
                outcome.index,
                outcome.cell_id,
                dict(outcome.overrides),
                outcome.trial,
                outcome.seed,
            )
            == (cell.index, cell.cell_id, dict(cell.overrides), cell.trial, cell.seed),
            f"cell {i} is not the campaign's cell {cell.index} ({cell.cell_id}: "
            f"overrides {dict(cell.overrides)}, trial {cell.trial}, seed "
            f"{cell.seed})",
        )
    result = CampaignResult(campaign=campaign, cells=outcomes)
    counts = {
        "cells": result.n_cells,
        "ok": result.n_ok,
        "failed": result.n_failed,
        "completed": result.n_completed,
    }
    _schema_require(
        summary == counts,
        f"campaign summary {summary} disagrees with its cells' {counts}",
    )
    _schema_require(
        _canonical(data["series"]) == _canonical(result.grouped_series()),
        "campaign series disagrees with the means of its cells",
    )
    return result


def _canonical(value: Any) -> str:
    """One spelling per JSON value (NaN compares equal to itself)."""
    return json.dumps(value, sort_keys=True)


__all__ = [
    "CAMPAIGN_RESULT_SCHEMA",
    "CellOutcome",
    "CampaignResult",
    "validate_campaign_dict",
]
