"""Campaign execution: cells over processes, outcomes onto disk.

:func:`run_campaign` is the engine: expand the campaign, fan the cells
out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(``workers=1`` falls back to plain in-process execution that is
bit-identical to a sequential :func:`repro.api.run` loop — pinned by
the parity tests), and aggregate the outcomes into a
:class:`~repro.campaign.aggregate.CampaignResult` in deterministic
cell order regardless of completion order.

Failure isolation: a cell that raises — at spec application, build, or
run time, in either execution mode — records an error entry and the
campaign continues.  With an output directory, every finished cell is
persisted as ``<cell_id>.json`` immediately and the full campaign as
``campaign.json`` at the end, each written to a temp file and moved
into place, so a crash mid-write never leaves a truncated file;
``resume=True`` reuses any on-disk *ok* cell that validates against the
schema and matches its cell id (error cells re-run, since their failure
may have been transient), so an interrupted campaign restarts where it
stopped.

Workers receive cells as spec JSON and return plain dicts, so results
replay across process (and machine) boundaries; per-cell seeds are
already derived into the specs by the expander.
"""

import contextlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import IO, Any, Callable, Dict, List, Optional, Tuple

from repro.api.output import prepare_out_file
from repro.api.result import ResultSchemaError
from repro.api.runner import run_spec_json
from repro.api.spec import Bound, SpecError, _require, check_value
from repro.campaign.aggregate import CampaignResult, CellOutcome
from repro.campaign.expander import CampaignCell, expand
from repro.campaign.spec import CampaignSpec

#: The aggregate file a campaign output directory ends with; its
#: presence marks the directory as holding a finished campaign (and
#: gates the clobber guard).
CAMPAIGN_FILE = "campaign.json"

#: Worker payload: (spec JSON or None, expander error, include_series).
_Payload = Tuple[Optional[str], Optional[str], bool]


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_payload(payload: _Payload) -> Dict[str, Any]:
    """Execute one cell payload; never raises (failure isolation).

    Module-level so it pickles into worker processes; also the
    ``workers=1`` in-process path, so both modes share one code path
    and one error format.
    """
    spec_json, expand_error, include_series = payload
    if expand_error is not None:
        return {"status": "error", "error": expand_error}
    try:
        return {"status": "ok", "result": run_spec_json(spec_json, include_series)}
    except Exception as exc:  # noqa: BLE001 - the cell boundary
        return {"status": "error", "error": _error_text(exc)}


def _payload(cell: CampaignCell, include_series: bool) -> _Payload:
    spec_json = cell.spec.to_json(indent=None) if cell.spec is not None else None
    return (spec_json, cell.error, include_series)


def _outcome(cell: CampaignCell, raw: Dict[str, Any]) -> CellOutcome:
    return CellOutcome(
        index=cell.index,
        cell_id=cell.cell_id,
        overrides=cell.overrides,
        trial=cell.trial,
        seed=cell.seed,
        status=raw["status"],
        result=raw.get("result"),
        error=raw.get("error"),
    )


def _cell_path(out_dir: str, cell: CampaignCell) -> str:
    return os.path.join(out_dir, f"{cell.cell_id}.json")


def _load_cached_cell(out_dir: str, cell: CampaignCell) -> Optional[CellOutcome]:
    """A trusted on-disk outcome for ``cell``, or None to (re-)run it.

    Cached *error* cells are never trusted: an on-disk failure may be
    transient (an OOM-killed worker, a broken pool), so resume re-runs
    it — a deterministic failure just re-records the same error.
    """
    path = _cell_path(out_dir, cell)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            outcome = CellOutcome.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, ResultSchemaError):
        return None
    if outcome.cell_id != cell.cell_id or outcome.index != cell.index:
        return None
    if not outcome.ok:
        return None
    return outcome


def _write_replacing(path: str, write: Callable[[IO[str]], None]) -> None:
    """``write`` into a temp file beside ``path``, then ``os.replace`` it
    in: a write that fails leaves ``path`` as it was, absent or whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _store_cell(out_dir: Optional[str], outcome: CellOutcome) -> None:
    if out_dir is None:
        return

    def write(fh: IO[str]) -> None:
        json.dump(outcome.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_replacing(os.path.join(out_dir, f"{outcome.cell_id}.json"), write)


def prepare_campaign_dir(out_dir: str, resume: bool = False, force: bool = False) -> str:
    """Create a campaign output directory, guarding finished campaigns.

    Shares the CLI ``--out`` contract (:func:`~repro.api.output.
    prepare_out_file`): parents are created on demand, and a directory
    already holding a finished ``campaign.json`` is refused unless the
    caller resumes (reusing its cells) or forces (overwriting them).
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise SpecError(
            f"cannot create campaign output directory {out_dir!r}: {exc}"
        ) from exc
    final = os.path.join(out_dir, CAMPAIGN_FILE)
    try:
        prepare_out_file(final, force=force or resume)
    except SpecError:
        raise SpecError(
            f"campaign output directory {out_dir!r} already holds a finished "
            f"campaign ({CAMPAIGN_FILE}); pass --resume to reuse its cells "
            f"or --force to overwrite them"
        ) from None
    return out_dir


def run_campaign(
    campaign: CampaignSpec,
    workers: int = 1,
    out_dir: Optional[str] = None,
    resume: bool = False,
    force: bool = False,
    include_series: bool = False,
    on_cell: Optional[Callable[[CellOutcome], None]] = None,
) -> CampaignResult:
    """Expand and execute a campaign; the one-call sweep pipeline.

    Args:
        campaign: the frozen sweep description.
        workers: process count; 1 executes in-process (bit-identical
            to a sequential :func:`repro.api.run` loop over the cells).
        out_dir: directory for per-cell JSON plus ``campaign.json``.
        resume: reuse valid on-disk cells instead of re-running them
            (requires ``out_dir``).
        force: overwrite a finished campaign in ``out_dir``.
        include_series: carry time-series rows in each cell's result.
        on_cell: progress callback, invoked per finished cell (in
            completion order, which under ``workers > 1`` is not cell
            order).

    Returns the :class:`CampaignResult`, cells in index order.
    """
    check_value("run_campaign.workers", workers, int, Bound(ge=1))
    _require(
        not (resume and out_dir is None),
        "resume requires an output directory (--out)",
    )
    cells = expand(campaign)
    if out_dir is not None:
        prepare_campaign_dir(out_dir, resume=resume, force=force)

    outcomes: Dict[int, CellOutcome] = {}
    pending: List[CampaignCell] = []
    for cell in cells:
        cached = _load_cached_cell(out_dir, cell) if (out_dir and resume) else None
        if cached is not None:
            outcomes[cell.index] = cached
            continue
        pending.append(cell)

    def finish(cell: CampaignCell, raw: Dict[str, Any]) -> None:
        outcome = _outcome(cell, raw)
        outcomes[cell.index] = outcome
        _store_cell(out_dir, outcome)
        if on_cell is not None:
            on_cell(outcome)

    if workers == 1:
        for cell in pending:
            finish(cell, _run_payload(_payload(cell, include_series)))
    elif pending:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_payload, _payload(cell, include_series)): cell
                for cell in pending
            }
            for future in as_completed(futures):
                cell = futures[future]
                try:
                    raw = future.result()
                except Exception as exc:  # noqa: BLE001 - pool breakage
                    # A worker died hard (e.g. the OS killed it);
                    # isolate the cell rather than the campaign.
                    raw = {"status": "error", "error": _error_text(exc)}
                finish(cell, raw)

    result = CampaignResult(
        campaign=campaign, cells=[outcomes[i] for i in range(len(cells))]
    )
    if out_dir is not None:
        _write_replacing(
            os.path.join(out_dir, CAMPAIGN_FILE),
            lambda fh: fh.write(result.to_json() + "\n"),
        )
    return result


__all__ = ["CAMPAIGN_FILE", "prepare_campaign_dir", "run_campaign"]
