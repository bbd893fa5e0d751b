"""The four fixed workloads and the checks on what they simulate.

Everything here stays on the ``repro.api`` / ``repro.campaign``
surface, imported lazily: a repetition times ``import repro.api`` as
part of its set-up, and ROADMAP items 2-3 may delete engines, shims and
topology layers behind that surface without touching this file.

Closed loop, one generator process: a repetition builds its inputs from
the seed, runs the scenario to its end and only then is the next one
started.  ``fig5_campaign`` fans its cells over two worker processes
(``nproc`` on the reference box); the other three are single-threaded.

Each workload has a ``smoke`` scale — the same construction at toy size
— used only by ``bench/tests`` and to give the driver's single-workload
trace line a real measurement for the layers that workload never
enters.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``swarm`` (packet overlay engine), ``flow`` or ``campaign``.
    kind: str
    #: What one unit of ``us_per_unit`` is.
    unit: str
    default_seed: int
    sizes: Mapping[str, Mapping[str, int]]
    why: str
    #: Operations one repetition attempts (campaign cells count singly).
    operations: int = 1


WORKLOADS = (
    Workload(
        name="rewire_10k",
        kind="swarm",
        unit="node-tick",
        default_seed=0,
        sizes={
            "full": {"num_peers": 10_000, "target": 100},
            "smoke": {"num_peers": 200, "target": 40},
        },
        why=(
            "10k-peer informed rewiring window: two reconfiguration epochs "
            "(card build/absorb, budgeted scan, rewire) dominate, Random "
            "senders keep delivery and coding cheap"
        ),
    ),
    Workload(
        name="congested_384",
        kind="swarm",
        unit="node-tick",
        default_seed=29,
        sizes={
            "full": {
                "num_peers": 384, "target": 80, "initial_seeded": 8,
                "bottleneck_rate": 64, "bottleneck_buffer": 64,
            },
            "smoke": {
                "num_peers": 24, "target": 30, "initial_seeded": 4,
                "bottleneck_rate": 16, "bottleneck_buffer": 16,
            },
        },
        why=(
            "zero epochs: the per-tick path (AIMD allowance, RTO expiry, "
            "bottleneck queue, Recode/BF refresh, peeling) plus scalar "
            "min-wise join planning; bypasses every epoch optimisation"
        ),
    ),
    Workload(
        name="fig5_campaign",
        kind="campaign",
        unit="cell",
        default_seed=7,
        sizes={"full": {"target": 8000}, "smoke": {"target": 200}},
        operations=32,
        why=(
            "the paper's Figure 5 as users regenerate it: 32 pair-transfer "
            "cells over 2 workers, delivery + coding receive path with "
            "campaign fan-out and per-cell JSON on top"
        ),
    ),
    Workload(
        name="flow_1m",
        kind="flow",
        unit="sim-tick",
        default_seed=9,
        sizes={
            "full": {
                "population": 1_000_000, "objects": 32, "target": 1000,
                "sample_cap": 1024,
            },
            "smoke": {
                "population": 20_000, "objects": 4, "target": 100,
                "sample_cap": 128,
            },
        },
        why=(
            "flow fidelity at 1M peers: cohort rate updates plus flow "
            "reconfiguration over representative nodes (scalar reconcile "
            "estimates); wall is flat in population"
        ),
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Campaign worker processes: the reference box's ``nproc``.
CAMPAIGN_WORKERS = 2
REWIRE_TICKS = 10
REWIRE_INTERVAL = 5


def make_input(workload: Workload, seed: int, scale: str = "full") -> Any:
    """The workload's ``ExperimentSpec`` (or ``CampaignSpec``) for a seed."""
    from repro.api import specs

    size = workload.sizes[scale]
    if workload.name == "rewire_10k":
        spec = specs.random_overlay(
            num_peers=size["num_peers"],
            target=size["target"],
            seed=seed,
            with_physical=False,
            strategy_name="Random",
            max_ticks=REWIRE_TICKS,
        )
        overrides = {
            "reconfig.policy": "informed",
            "reconfig.interval": REWIRE_INTERVAL,
            "reconfig.scan_budget": 32,
        }
    elif workload.name == "congested_384":
        spec = specs.congested_swarm(
            num_peers=size["num_peers"],
            target=size["target"],
            waves=4,
            initial_seeded=size["initial_seeded"],
            bottleneck_rate=size["bottleneck_rate"],
            bottleneck_buffer=size["bottleneck_buffer"],
            transport_policy="aimd",
            reconfig_policy="static",
            seed=seed,
            max_ticks=20_000,
        )
        overrides = {}
    elif workload.name == "flow_1m":
        return specs.population_flash_crowd(
            population=size["population"],
            objects=size["objects"],
            target=size["target"],
            waves=8,
            sample_cap=size["sample_cap"],
            seed=seed,
        )
    elif workload.name == "fig5_campaign":
        from repro.campaign import CampaignSpec, GridAxis

        return CampaignSpec(
            base=specs.pair_transfer(target=size["target"], seed=seed),
            grid=(
                GridAxis("params.correlation", (0.0, 0.15, 0.3, 0.45)),
                GridAxis(
                    "strategy.name",
                    ("Random", "Random/BF", "Recode", "Recode/BF"),
                ),
            ),
            seeds=2,
        )
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    overrides["measurement.engine"] = "columnar"
    overrides["measurement.record_series"] = False
    for path, value in overrides.items():
        spec = spec.with_override(path, value)
    return spec


def prepare(workload: Workload, inp: Any) -> Any:
    """The rest of set-up: ``build(spec)``, or ``expand`` for a campaign."""
    if workload.kind == "campaign":
        from repro.campaign import expand

        return expand(inp)
    from repro.api import build

    return build(inp)


def execute(workload: Workload, inp: Any, prepared: Any, tmp_dir: str) -> Any:
    """The timed region: run the prepared experiment to its end."""
    if workload.kind == "campaign":
        from repro.campaign import run_campaign

        return run_campaign(inp, workers=CAMPAIGN_WORKERS, out_dir=tmp_dir)
    return prepared.run()


# -- what the run produced ---------------------------------------------------


def canonical_digest(value: Any) -> str:
    """sha256 of the canonical (sorted, compact) JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one repetition simulated, reduced to checkable numbers."""

    units: int
    sim_efficiency: Optional[float]
    sim_digest: str
    #: Operations: one per repetition, one per cell for the campaign.
    attempted: int
    failed: int
    #: One line per broken invariant.
    failures: List[str]


def _packet_invariants(m: Mapping[str, float]) -> List[str]:
    """Conservation checks every packet/flow result must satisfy."""
    problems = []
    delivered = m["packets_sent"] - m["packets_lost"]
    # Flow fidelity counts packets in floats; allow rounding, not more.
    slack = 1e-9 * m["packets_sent"]
    if not (m["packets_useful"] <= delivered + slack and m["packets_lost"] >= 0):
        problems.append(
            f"useful <= delivered <= sent violated: {m['packets_useful']} "
            f"/ {delivered} / {m['packets_sent']}"
        )
    if m.get("queue_drops", 0.0) > m.get("queue_offered", 0.0):
        problems.append("queue_drops exceeds queue_offered")
    if (
        m.get("transport_acked", 0.0) + m.get("transport_timeouts", 0.0)
        > m.get("transport_tracked", 0.0)
    ):
        problems.append("transport acked + timeouts exceeds tracked")
    return problems


def _efficiency(m: Mapping[str, float]) -> Optional[float]:
    delivered = m["packets_sent"] - m["packets_lost"]
    return m["packets_useful"] / delivered if delivered else None


def summarise(workload: Workload, scale: str, result: Any) -> Outcome:
    """Check a run's public result and reduce it to an :class:`Outcome`."""
    if workload.kind == "campaign":
        return _summarise_campaign(result)
    m = result.metrics
    problems = _packet_invariants(m)
    size = workload.sizes[scale]
    if workload.name == "rewire_10k":
        # A fixed window, not a run to completion: `completed` is
        # expected to be false, the window shape is what must hold.
        if m["ticks"] != REWIRE_TICKS:
            problems.append(f"ticks == {m['ticks']}, expected {REWIRE_TICKS}")
        epochs = REWIRE_TICKS // REWIRE_INTERVAL
        if m.get("reconfig_epochs") != epochs:
            problems.append(
                f"reconfig_epochs == {m.get('reconfig_epochs')}, expected {epochs}"
            )
        units = size["num_peers"] * int(m["ticks"])
    else:
        if not result.completed:
            problems.append("run did not complete")
        if workload.kind == "flow":
            if m["peers_completed"] != m["population"]:
                problems.append(
                    f"peers_completed {m['peers_completed']} != population "
                    f"{m['population']}"
                )
            units = int(m["ticks"])
        else:
            units = size["num_peers"] * int(m["ticks"])
    return Outcome(
        units=units,
        sim_efficiency=_efficiency(m),
        sim_digest=canonical_digest(dict(m)),
        attempted=1,
        failed=1 if problems else 0,
        failures=problems,
    )


def _summarise_campaign(result: Any) -> Outcome:
    from repro.api.result import validate_result_dict

    problems: List[str] = []
    ratios: List[float] = []
    failed = 0
    for cell in result.cells:
        reason = None
        if not cell.ok:
            reason = cell.error or "cell failed"
        else:
            try:
                validate_result_dict(cell.result)
            except ValueError as exc:
                reason = f"invalid result: {exc}"
            else:
                m = cell.result["metrics"]
                if not cell.result["completed"]:
                    reason = "transfer did not complete"
                elif not 0 < m["useful_needed"] <= m["packets_sent"]:
                    reason = "useful_needed <= packets_sent violated"
                else:
                    ratios.append(m["useful_needed"] / m["packets_sent"])
        if reason is not None:
            failed += 1
            problems.append(f"{cell.cell_id}: {reason}")
    return Outcome(
        units=result.n_cells,
        sim_efficiency=sum(ratios) / len(ratios) if ratios else None,
        sim_digest=canonical_digest(result.to_dict()),
        attempted=result.n_cells,
        failed=failed,
        failures=problems,
    )
