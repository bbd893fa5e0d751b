"""The ``summary_tradeoff`` scenario: the paper's §5/§8 trade-off as data.

One spec sweeps summary kinds x byte budgets over a fixed pair layout
and reports, per cell, the control overhead actually spent on the wire
(the receiver's summary bytes) against the transfer it bought (packets
per useful symbol, useful symbols recovered).  That is the accuracy-vs-
overhead comparison Sections 5 and 8 of the paper make in prose,
emitted through the standard :class:`~repro.api.result.RunResult`
schema: flat per-cell ``metrics`` plus ``(kind, metric, budget,
value)`` series rows, so ``python -m repro.api --scenario
summary_tradeoff --series`` dumps a plottable file.

Budgets are *bits per element* of the summarised set and are mapped to
each adapter's natural sizing knob (`_params_for_budget`).  Exact
summaries whose wire cost is fixed by the data rather than a budget
(``cpi`` — sized by the true discrepancy; ``wholeset`` — sized by the
set) run once and replicate their row across budgets, keeping the
series aligned without re-running identical transfers.
"""

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.api.registry import check_params, scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment
from repro.api.spec import (
    Bound,
    ExperimentSpec,
    MeasurementSpec,
    SpecError,
    SwarmSpec,
)
from repro.delivery.receiver import SimReceiver
from repro.delivery.scenarios import COMPACT_MULTIPLIER, make_pair_scenario
from repro.delivery.strategies import DEFAULT_DESIRED_MARGIN, make_strategy
from repro.delivery.transfer import simulate_p2p_transfer
from repro.reconcile import SummaryPolicy, summary_kinds
from repro.seeding import derive_rng
from repro.sim.stats import StatsRecorder

#: Discrepancy above which a CPI cell is reported but not run —
#: ``Θ(d³)`` recovery is the paper's "prohibitive except when d is
#: small" regime, and the scenario reports exactly that.
DEFAULT_CPI_CAP = 300

#: Kinds whose wire size is fixed by the data, not the byte budget.
_BUDGET_FREE_KINDS = frozenset({"cpi", "wholeset"})


def summary_tradeoff(
    target: int = 200,
    multiplier: float = COMPACT_MULTIPLIER,
    correlation: float = 0.3,
    kinds: str = "minwise,bloom,art,cpi",
    budgets: str = "4,8,16",
    seed: int = 0,
    cpi_cap: int = DEFAULT_CPI_CAP,
    max_packets: int = 0,
) -> ExperimentSpec:
    """Spec: sweep summary kinds x bit budgets over one pair layout.

    Args:
        target: symbols the receiver needs (pair-layout ``n``).
        multiplier: distinct symbols as a multiple of ``n``.
        correlation: requested sender/receiver overlap.
        kinds: comma-separated registered summary kinds to sweep.
        budgets: comma-separated bits-per-element budgets.
        seed: master seed (each cell derives its own stream).
        cpi_cap: skip (but still report) CPI cells whose true
            discrepancy exceeds this bound.
        max_packets: per-cell data-packet cap (0 = derived default).
    """
    spec = ExperimentSpec(
        scenario="summary_tradeoff",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=multiplier),
        measurement=MeasurementSpec(max_packets=max_packets),
        params={
            "correlation": correlation,
            "kinds": kinds,
            "budgets": budgets,
            "cpi_cap": cpi_cap,
        },
    )
    _parse_kinds(spec)  # fail at construction, not at run time
    _parse_budgets(spec)
    return spec


def _parse_kinds(spec: ExperimentSpec) -> List[str]:
    kinds = [k.strip() for k in check_params(spec)["kinds"].split(",") if k.strip()]
    if not kinds:
        raise SpecError("summary_tradeoff needs at least one summary kind")
    known = set(summary_kinds())
    unknown = [k for k in kinds if k not in known]
    if unknown:
        raise SpecError(
            f"unknown summary kinds {unknown}; registered: {sorted(known)}"
        )
    if len(set(kinds)) != len(kinds):
        raise SpecError("duplicate summary kinds in the sweep")
    return kinds


def _parse_budgets(spec: ExperimentSpec) -> List[int]:
    raw = check_params(spec)["budgets"]
    try:
        budgets = [int(b.strip()) for b in raw.split(",") if b.strip()]
    except ValueError as exc:
        raise SpecError(f"budgets must be comma-separated integers: {exc}") from exc
    if not budgets or any(b <= 0 for b in budgets):
        raise SpecError("budgets must be positive bits-per-element integers")
    if len(set(budgets)) != len(budgets):
        raise SpecError("duplicate budgets in the sweep")
    return budgets


def _params_for_budget(
    kind: str, budget: int, n: int, true_discrepancy: int
) -> Dict[str, Any]:
    """Map a bits-per-element budget to an adapter's sizing parameters.

    Keys are 64-bit on the wire, so sample-style summaries convert the
    budget to a key count (``budget * n / 64`` keys); filter-style
    summaries take the budget directly.
    """
    if kind == "minwise":
        # 64-bit minima: budget bits/element over n elements.
        return {"entries": max(1, budget * n // 64)}
    if kind == "modk":
        # Expected sample n/modulus keys of 8 bytes each.
        return {"modulus": max(1, round(64 / budget))}
    if kind == "random_sample":
        return {"k": max(1, budget * n // 64)}
    if kind in ("bloom", "art", "partitioned_bloom"):
        return {"bits_per_element": budget}
    if kind == "hashset":
        return {"hash_bits": min(64, max(8, budget))}
    if kind == "cpi":
        return {"max_discrepancy": true_discrepancy + 8}
    if kind == "wholeset":
        return {}
    raise SpecError(f"no budget mapping for summary kind {kind!r}")


@scenario(
    "summary_tradeoff",
    small_spec=lambda: summary_tradeoff(
        target=80, correlation=0.25, kinds="minwise,bloom", budgets="8", seed=9
    ),
    description="Sweep summary kinds x sizes: control bytes vs useful symbols",
    params={
        "correlation": Bound(float, 0.3, ge=0, lt=1),
        "kinds": Bound(str, "minwise,bloom,art,cpi"),
        "budgets": Bound(str, "4,8,16"),
        "cpi_cap": Bound(int, DEFAULT_CPI_CAP, ge=0),
    },
)
def build_summary_tradeoff(spec: ExperimentSpec) -> BuiltExperiment:
    """Per cell: build the receiver's summary, reconcile, transfer, account."""
    swarm = spec.swarm
    if swarm is None:
        raise SpecError("summary_tradeoff requires a swarm spec (target/multiplier)")
    kinds = _parse_kinds(spec)
    budgets = _parse_budgets(spec)

    def run(built: BuiltExperiment) -> RunResult:
        stats = (
            StatsRecorder(resolution=1.0)
            if spec.measurement.record_series
            else None
        )
        metrics: Dict[str, float] = {}
        events: List[str] = []
        cells: Dict[Tuple[str, int], Dict[str, Any]] = {}
        all_completed = True
        for kind in kinds:
            cached: Optional[Dict[str, Any]] = None
            for budget in budgets:
                if kind in _BUDGET_FREE_KINDS and cached is not None:
                    cell = dict(cached)
                    cell["budget"] = budget
                else:
                    cell = _run_cell(spec, kind, budget, events)
                    if kind in _BUDGET_FREE_KINDS:
                        cached = cell
                cells[(kind, budget)] = cell
                key = f"{kind}@{budget}"
                metrics[f"wire_bytes[{key}]"] = float(cell["wire_bytes"])
                metrics[f"useful_symbols[{key}]"] = float(cell["useful_symbols"])
                if cell["ran"]:
                    metrics[f"overhead[{key}]"] = float(cell["overhead"])
                    metrics[f"packets[{key}]"] = float(cell["packets_sent"])
                    all_completed = all_completed and cell["completed"]
                if stats is not None:
                    stats.gauge(budget, kind, "wire_bytes", float(cell["wire_bytes"]))
                    stats.gauge(
                        budget, kind, "useful_symbols", float(cell["useful_symbols"])
                    )
                    if cell["ran"]:
                        stats.gauge(budget, kind, "overhead", float(cell["overhead"]))
                        stats.gauge(
                            budget, kind, "packets_sent", float(cell["packets_sent"])
                        )
        return RunResult(
            spec=spec,
            completed=all_completed,
            metrics=metrics,
            stats=stats,
            events=events,
            extras={"cells": cells},
        )

    return BuiltExperiment(spec=spec, kind="sweep", runner=run)


def _run_cell(
    spec: ExperimentSpec, kind: str, budget: int, events: List[str]
) -> Dict[str, Any]:
    """One (kind, budget) cell: layout, summary, reconcile, transfer."""
    swarm = spec.swarm
    assert swarm is not None
    params = check_params(spec)
    rng = derive_rng(spec.seed, "summary_tradeoff", kind, budget)
    layout = make_pair_scenario(
        swarm.target, swarm.distinct_multiplier, params["correlation"], rng
    )
    deficit = layout.target - len(layout.receiver)
    true_d = len(layout.sender.ids ^ layout.receiver.ids)
    cell: Dict[str, Any] = {
        "kind": kind,
        "budget": budget,
        "true_discrepancy": true_d,
        "deficit": deficit,
        "ran": False,
        "completed": False,
        "useful_symbols": 0,
        "overhead": 0.0,
        "packets_sent": 0,
    }

    sizing = _params_for_budget(kind, budget, len(layout.receiver), true_d)
    if kind == "cpi" and true_d > params["cpi_cap"]:
        # Report the bound's wire cost without paying Θ(d³) recovery —
        # the paper's "prohibitive unless d is small" regime, measured
        # through the same formula a run cell would report.
        from repro.reconcile.adapters import CPISummary

        cell["wire_bytes"] = CPISummary.wire_bytes_for_bound(
            sizing["max_discrepancy"]
        )
        events.append(
            f"cpi@{budget}: discrepancy {true_d} exceeds cpi_cap="
            f"{params['cpi_cap']}; cell reported, not run"
        )
        return cell

    policy = SummaryPolicy(kind=kind, params=sizing)
    cell["wire_bytes"] = policy.summary_of(layout.receiver).wire_bytes()

    desired = int(math.ceil(deficit * DEFAULT_DESIRED_MARGIN))
    # One strategy-selection ladder for the whole stack: searchable
    # summaries purge the domain, sketches shift degrees, an exceeded
    # CPI bound degrades to the labelled blind fallback.
    strategy = make_strategy(
        "Recode/BF",
        layout.sender,
        layout.receiver,
        rng,
        symbols_desired=desired,
        summary_policy=policy,
    )
    if strategy.name.endswith("-blind"):
        events.append(
            f"{kind}@{budget}: discrepancy bound exceeded; recoding blind"
        )

    receiver = SimReceiver(layout.receiver, layout.target)
    before = receiver.known_count
    result = simulate_p2p_transfer(
        receiver, strategy, max_packets=spec.measurement.max_packets or None
    )
    cell.update(
        ran=True,
        completed=result.completed,
        overhead=result.overhead,
        packets_sent=result.packets_sent,
        useful_symbols=receiver.known_count - before,
        strategy=strategy.name,
    )
    return cell


__all__ = ["summary_tradeoff", "DEFAULT_CPI_CAP"]
