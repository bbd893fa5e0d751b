"""Campaign expansion: a frozen grid into an ordered list of cells.

Expansion is pure and deterministic: the cross product of the grid
axes in declaration order (last axis fastest), replicated over the
seed range, each cell's master seed derived from the base seed, the
cell's override assignment, and its trial index via
:func:`repro.seeding.derive_seed` — so the same campaign file expands
to the same cells, ids, and seeds on every process and machine.

An override combination the spec layer rejects (axes that validate
individually can still conflict jointly) does not abort expansion: the
cell carries the error instead of a spec, and the executor records it
as a failed cell.
"""

import hashlib
from dataclasses import dataclass
from itertools import product
from typing import Any, List, Optional, Tuple

from repro.api.spec import ExperimentSpec, SpecError
from repro.campaign.spec import CampaignSpec
from repro.seeding import derive_seed


@dataclass(frozen=True)
class CampaignCell:
    """One concrete experiment of a campaign.

    ``overrides`` holds the cell's grid assignment as ``(key, value)``
    pairs in grid order; ``cell_id`` is a stable, filesystem-safe name
    (index plus a digest of the assignment) used for per-cell result
    files and ``--resume`` matching.  ``spec`` is the fully resolved
    :class:`~repro.api.ExperimentSpec` (overrides applied, derived seed
    installed), or ``None`` when the combination failed to apply —
    ``error`` then says why.
    """

    index: int
    cell_id: str
    overrides: Tuple[Tuple[str, Any], ...]
    trial: int
    seed: int
    spec: Optional[ExperimentSpec] = None
    error: Optional[str] = None


def _cell_digest(
    overrides: Tuple[Tuple[str, Any], ...],
    trial: int,
    spec: Optional[ExperimentSpec],
) -> str:
    """A short stable digest naming one fully resolved cell.

    Digesting the *resolved* spec (not just the assignment) means any
    edit to the campaign's base changes every cell id, so ``--resume``
    can never pair a new campaign with results computed from an old
    one — stale cells simply miss the cache and re-run.
    """
    resolved = spec.to_json(indent=None) if spec is not None else None
    payload = repr((overrides, trial, resolved)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:8]


def expand(campaign: CampaignSpec) -> List[CampaignCell]:
    """The campaign's cells, in deterministic index order."""
    axis_keys = [axis.key for axis in campaign.grid]
    cells: List[CampaignCell] = []
    index = 0
    for combo in product(*(axis.values for axis in campaign.grid)):
        overrides = tuple(zip(axis_keys, combo))
        for trial in range(campaign.seeds):
            seed = derive_seed(campaign.base.seed, "campaign", overrides, trial)
            spec: Optional[ExperimentSpec] = campaign.base
            error: Optional[str] = None
            try:
                for key, value in overrides:
                    spec = spec.with_override(key, value)
                spec = spec.with_override("seed", seed)
            except SpecError as exc:
                spec, error = None, f"SpecError: {exc}"
            cell_id = f"cell-{index:04d}-{_cell_digest(overrides, trial, spec)}"
            cells.append(
                CampaignCell(
                    index=index,
                    cell_id=cell_id,
                    overrides=overrides,
                    trial=trial,
                    seed=seed,
                    spec=spec,
                    error=error,
                )
            )
            index += 1
    return cells


__all__ = ["CampaignCell", "expand"]
