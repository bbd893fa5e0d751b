"""The ``adaptive_overlay`` scenario: the paper's adaptive-vs-static claim.

The title's promise — *informed content delivery across adaptive
overlay networks* — is a comparison: an overlay that rewires its
peering from informed utility estimates should beat both a static
overlay and one that rewires blindly.  This scenario runs that
comparison as one spec: the same swarm is executed three times from
identical derived seeds, once per arm —

* ``static`` — the initial source-only peering never changes;
* ``random`` — senders are swapped uniformly at random each epoch
  (:class:`~repro.overlay.reconfiguration.RandomRewiring`);
* ``informed`` — summary-driven admission and utility rewiring under
  the spec's :class:`~repro.api.spec.ReconfigSpec` (any registered
  summary kind via ``reconfig.summary``).

The swarm is the paper's mirror environment (§1-2): two replica groups
each hold one half of the symbol space — every in-group peering is
pure redundancy, every cross-group peering is pure gain — plus a wave
of empty latecomers.  Senders deliberately use the *uninformed*
``Random`` strategy, so reception efficiency isolates the quality of
the peering decisions themselves (the strategy axis is
``summary_tradeoff``'s business; the paper's §4 point is that sketches
let receivers "immediately reject candidate senders whose content is
identical to their own").

Packet accounting is cumulative over every connection that ever
existed — :class:`~repro.overlay.simulator.SimulationReport` counters
are simulator-owned running totals, so an arm cannot improve its
reported efficiency by discarding connections along with their
redundant history.  Each arm reports completion time, useful-symbol
fraction, rewiring count, and the control bytes its summary cards
actually cost on the wire; the headline ``informed_useful_gain``
metric is the informed arm's useful-fraction lead over the random arm.
The ``reconfig.summary.kind`` axis is sweepable, so a campaign turns
the accuracy-vs-overhead of informed peering into one grid.
"""

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.api.builders import (
    _build_swarm,
    _mirror_halves,
    _require_informed_arm,
    _require_members,
    _run_arms,
    _schedule_join_waves,
    _seeded_count,
    _source_group,
)
from repro.api.registry import scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment
from repro.api.spec import (
    ChurnSpec,
    ExperimentSpec,
    MeasurementSpec,
    NodeSpec,
    ReconfigSpec,
    StrategySpec,
    SwarmSpec,
)
from repro.overlay.node import OverlayNode
from repro.overlay.simulator import OverlaySimulator, SimulationReport
from repro.seeding import derive_seed
from repro.sim.stats import StatsRecorder

#: The comparison arms, in reporting order.
ARMS = ("static", "random", "informed")


def adaptive_overlay(
    mirrors_per_group: int = 4,
    joiners: int = 4,
    target: int = 100,
    wave_interval: float = 5.0,
    max_connections: int = 3,
    interval: float = 5.0,
    summary_kind: str = "",
    seed: int = 2,
    strategy_name: str = "Random",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: static vs random vs informed rewiring over a mirror swarm.

    Args:
        mirrors_per_group: replicas in each of the two content groups.
        joiners: empty latecomers arriving in one wave.
        target: symbols each peer needs to complete.
        wave_interval: when the joiner wave lands.
        max_connections: inbound sender slots per peer.
        interval: reconfiguration epoch period (simulated time units).
        summary_kind: summary driving the informed arm ("" = the
            default min-wise calling card).
        seed: master seed; every arm derives identically from it.
        strategy_name: sender strategy, shared by all arms (the
            default uninformed ``Random`` isolates the peering axis).
    """
    spec = ExperimentSpec(
        scenario="adaptive_overlay",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(
                    name="a",
                    count=mirrors_per_group,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=max_connections,
                ),
                NodeSpec(
                    name="b",
                    count=mirrors_per_group,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=max_connections,
                ),
                NodeSpec(
                    name="p", count=joiners, max_connections=max_connections
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        churn=ChurnSpec(join_waves=1, wave_interval=wave_interval)
        if joiners
        else None,
        reconfig=ReconfigSpec(policy="informed", interval=interval),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )
    if summary_kind:
        spec = spec.with_override("reconfig.summary.kind", summary_kind)
    return spec


def _populate_mirrors(spec, scn, rng, shared) -> None:
    """The mirror swarm: two replica groups on complementary slices
    behind the source, joiners wired to the source as they land."""
    swarm = spec.swarm
    sim = scn.simulator
    src_name = _source_group(swarm).member_ids()[0]
    group_a = swarm.group("a")
    group_b = swarm.group("b")
    joiners = swarm.group("p")
    target = swarm.target
    sim.add_node(OverlayNode(src_name, target, is_source=True))
    slices = _mirror_halves(
        rng,
        swarm.distinct_symbols,
        _seeded_count(group_a, swarm),
        _seeded_count(group_b, swarm),
    )
    for group, ids in zip((group_a, group_b), slices):
        for name in group.member_ids():
            sim.add_node(
                OverlayNode(
                    name,
                    target,
                    initial_ids=ids,
                    max_connections=group.max_connections,
                )
            )
            sim.connect(src_name, name)

    def admit(batch: Sequence[str]) -> None:
        for pid in batch:
            sim.add_node(
                OverlayNode(pid, target, max_connections=joiners.max_connections)
            )
            sim.connect(src_name, pid)

    _schedule_join_waves(sim, joiners.member_ids(), spec.churn, admit)


def _observe_arm(
    arm: str,
    sim: OverlaySimulator,
    report: SimulationReport,
    series: Optional[StatsRecorder],
) -> Tuple[Dict[str, float], str]:
    if series is not None:
        series.gauge(0.0, arm, "ticks", float(report.ticks))
        series.gauge(0.0, arm, "useful_fraction", report.efficiency)
        series.gauge(0.0, arm, "control_bytes", float(report.control_bytes))
    return (
        {"packets_sent": float(report.packets_sent)},
        f"reconfigurations={report.reconfigurations}",
    )


@scenario(
    "adaptive_overlay",
    small_spec=lambda: adaptive_overlay(
        mirrors_per_group=4,
        joiners=4,
        target=40,
        seed=2,
        max_ticks=4_000,
    ),
    description="Static vs random vs informed rewiring over one mirror swarm",
    small_grid=lambda: {"reconfig.summary.kind": ["minwise", "bloom", "modk"]},
    supports=("reconfig", "churn.join_waves"),
    groups=("a", "b", "p"),
)
def build_adaptive_overlay(spec: ExperimentSpec) -> BuiltExperiment:
    """Run all three arms from identical seeds; report the comparison."""
    _require_informed_arm(spec)
    for group in ("a", "b"):
        _require_members(spec, group, 1, "one mirror per group")

    def build_arm(arm: str) -> BuiltExperiment:
        # No recorder: accounting rides the simulator's totals.
        rng = random.Random(derive_seed(spec.seed, "adaptive_overlay"))
        return _build_swarm(spec, _populate_mirrors, rng=rng, stats=None, arm=arm)

    def run(built: BuiltExperiment) -> RunResult:
        return _run_arms(spec, ARMS, build_arm, _observe_arm)

    return BuiltExperiment(spec=spec, kind="sweep", runner=run)


__all__ = ["ARMS", "adaptive_overlay"]
