"""The ``congested_swarm`` scenario: a flash crowd behind one bottleneck.

The other swarm scenarios give every connection its own private link,
so senders never contend; this one routes *every* connection through a
single shared FIFO drop-tail :class:`~repro.transport.queue.
BottleneckQueue`, making congestion control consequential: an open-loop
swarm overdrives the queue and burns its budget on drops, while an
AIMD or BBR-lite swarm backs off and keeps the useful-delivery rate up.

The scenario therefore *requires* a transport spec with a positive
``bottleneck_rate`` — the arms of its campaign grid are transport
policy × reconfiguration policy, reproducing the paper's informed-vs-
uninformed comparison under contention rather than over ideal links.
"""

import dataclasses
import random

from repro.api.builders import (
    FLASH_CROWD_SECTIONS,
    _build_swarm,
    _populate_flash_crowd,
    _run_swarm,
    flash_crowd,
)
from repro.api.registry import scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment
from repro.api.spec import ExperimentSpec, ReconfigSpec, SpecError, TransportSpec


def congested_swarm(
    num_peers: int = 24,
    target: int = 80,
    initial_seeded: int = 4,
    waves: int = 3,
    wave_interval: float = 10,
    max_connections: int = 3,
    bottleneck_rate: float = 12.0,
    bottleneck_buffer: int = 32,
    transport_policy: str = "aimd",
    reconfig_policy: str = "informed",
    seed: int = 29,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 2_000,
) -> ExperimentSpec:
    """Spec: a flash crowd (:func:`~repro.api.builders.flash_crowd`, its
    joiners partially seeded) whose every connection shares one bottleneck.

    ``transport_policy`` picks the congestion controller
    (:func:`repro.transport.transport_policies` lists them);
    ``reconfig_policy`` picks the overlay arm (``informed`` / ``random``
    / ``static``).  Both are plain spec axes, so a campaign sweeps the
    full policy × policy grid.
    """
    base = flash_crowd(
        num_peers=num_peers,
        target=target,
        initial_seeded=initial_seeded,
        waves=waves,
        wave_interval=wave_interval,
        max_connections=max_connections,
        seed=seed,
        strategy_name=strategy_name,
        max_ticks=max_ticks,
    )
    src, seeds, joiners = base.swarm.nodes
    # Joiners arrive with partial, random working sets — under a shared
    # bottleneck the interesting failure mode is capacity burned on
    # duplicates, which only exists when peers already hold something.
    joiners = dataclasses.replace(
        joiners, seeding="uniform", seed_fraction=0.75, seed_basis="target"
    )
    return dataclasses.replace(
        base,
        scenario="congested_swarm",
        swarm=dataclasses.replace(base.swarm, nodes=(src, seeds, joiners)),
        reconfig=ReconfigSpec(policy=reconfig_policy),
        transport=TransportSpec(
            policy=transport_policy,
            bottleneck_rate=bottleneck_rate,
            bottleneck_buffer=bottleneck_buffer,
        ),
    )


def _run_congested(built: BuiltExperiment) -> RunResult:
    """The swarm runner plus the scenario's headline contention metrics."""
    result = _run_swarm(built)
    metrics = result.metrics
    if metrics.get("ticks"):
        metrics["goodput"] = metrics["packets_useful"] / metrics["ticks"]
    if metrics.get("packets_sent"):
        metrics["useful_fraction"] = (
            metrics["packets_useful"] / metrics["packets_sent"]
        )
    return result


@scenario(
    "congested_swarm",
    small_spec=lambda: congested_swarm(
        num_peers=10,
        target=40,
        initial_seeded=2,
        waves=2,
        wave_interval=5,
        bottleneck_rate=8.0,
        bottleneck_buffer=12,
        seed=9,
        max_ticks=400,
    ),
    description="A flash crowd contending for one shared bottleneck queue",
    small_grid=lambda: {
        "transport.policy": ["open_loop", "aimd"],
        "reconfig.policy": ["informed", "random"],
    },
    supports=FLASH_CROWD_SECTIONS,
    groups=("seed", "p"),
)
def build_congested_swarm(spec: ExperimentSpec) -> BuiltExperiment:
    """The flash-crowd assembly with a mandatory shared bottleneck: the
    two scenarios differ only in the queue every connection now drains
    through (and the joiners' seeding rule, which is spec data)."""
    if spec.transport is None or spec.transport.bottleneck_rate <= 0:
        raise SpecError(
            "congested_swarm requires a transport spec with bottleneck_rate "
            "> 0 — without a shared queue there is nothing to congest; use "
            "flash_crowd for uncontended runs"
        )
    return _build_swarm(
        spec, _populate_flash_crowd, rng=random.Random(spec.seed), runner=_run_congested
    )


__all__ = ["congested_swarm"]
