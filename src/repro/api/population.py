"""The ``population_flash_crowd`` scenario: population-scale demand.

The paper's headline environment — flash crowds of receivers rushing
mirrored content — at the population sizes the "millions of users"
story needs.  A frozen :class:`~repro.api.spec.PopulationSpec` states
the demand side (Zipf object popularity, arrival-wave shape, seeded
mirror fraction, bandwidth tiers); ``measurement.fidelity`` picks the
engine that serves it:

* ``"flow"`` — the :class:`~repro.flow.FlowSimulator` rate-equation
  engine: cohort aggregates between epochs, real reconciliation
  summaries at every handshake, O(cohorts) per epoch at any population
  size (the 1M-peer acceptance path).
* ``"packet"`` — one per-object packet-level swarm per catalog object,
  the same mirrors + arrival waves + tiered links, aggregated into the
  identical metric keys.

Both fidelities construct the *same* population from the same
deterministic apportionment (:mod:`repro.flow.demand`), so the
fidelity axis is directly sweepable in one campaign grid — the
cross-validation tests pin flow-level useful-fraction and completion
time against the packet engines on overlapping small-N cells.
"""

import random
from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.api.builders import (
    _build_swarm,
    _mirror_halves,
    _reconfig,
    _reconfig_policies,
    _reconfig_sim_kwargs,
    _require_swarm,
)
from repro.api.registry import scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment
from repro.api.spec import (
    ExperimentSpec,
    MeasurementSpec,
    PopulationSpec,
    ReconfigSpec,
    SpecError,
    StrategySpec,
    SummarySpec,
    SwarmSpec,
)
from repro.flow.demand import apportion, tier_multipliers, wave_weights, zipf_shares
from repro.flow.engine import CohortDef, FlowSimulator
from repro.overlay.node import OverlayNode
from repro.seeding import derive_seed
from repro.sim.links import ConstantRateLink

#: Pre-seeded mirror cohorts hold this fraction of the target each, as
#: two complementary slices (the adaptive_overlay mirror environment).
MIRROR_FRACTION = 0.5


def population_flash_crowd(
    population: int = 20_000,
    target: int = 200,
    objects: int = 1,
    zipf_skew: float = 0.8,
    waves: int = 4,
    wave_profile: str = "flash",
    wave_interval: float = 10.0,
    seeded_fraction: float = 0.1,
    rate: float = 2.0,
    loss_rate: float = 0.01,
    rate_tiers: int = 2,
    rate_spread: float = 0.25,
    sample_cap: int = 256,
    max_connections: int = 3,
    interval: float = 5.0,
    fidelity: str = "flow",
    policy: str = "informed",
    summary_kind: str = "",
    seed: int = 9,
    strategy_name: str = "Random",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: Zipf-skewed arrival waves rush mirrored objects.

    Args:
        population: total peers across every object and wave.
        target: symbols each peer needs to complete.
        objects: catalog size; audience per object follows
            ``1/rank^zipf_skew``.
        waves / wave_profile / wave_interval: the arrival process
            (empty latecomers land every ``wave_interval``, sized by
            the profile).
        seeded_fraction: share of each object's audience pre-seeded as
            two complementary half-content mirror groups.
        rate / loss_rate: per-connection goodput model (both
            fidelities; the packet engines build constant-rate links
            from it).
        rate_tiers / rate_spread: bandwidth classes per cohort.
        sample_cap: flow fidelity's sampled-ID sketch cap.
        interval: reconfiguration epoch period.
        fidelity: ``"flow"`` (population engine) or ``"packet"``.
        policy: reconfiguration arm (informed / random / static).
        summary_kind: informed arm's summary ("" = default min-wise).
        strategy_name: data-plane sender strategy (the default
            uninformed ``Random`` isolates the peering axis).
    """
    summary = (
        SummarySpec(kind=summary_kind) if summary_kind and policy == "informed" else None
    )
    if summary_kind and policy != "informed":
        raise SpecError("summary_kind applies to the informed policy only")
    return ExperimentSpec(
        scenario="population_flash_crowd",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=1.2),
        strategy=StrategySpec(name=strategy_name),
        reconfig=ReconfigSpec(policy=policy, summary=summary, interval=interval),
        measurement=MeasurementSpec(max_ticks=max_ticks, fidelity=fidelity),
        population=PopulationSpec(
            size=population,
            objects=objects,
            zipf_skew=zipf_skew,
            waves=waves,
            wave_profile=wave_profile,
            wave_interval=wave_interval,
            seeded_fraction=seeded_fraction,
            rate=rate,
            loss_rate=loss_rate,
            rate_tiers=rate_tiers,
            rate_spread=rate_spread,
            sample_cap=sample_cap,
            max_connections=max_connections,
        ),
    )


# ---------------------------------------------------------------------------
# The shared layout: both fidelities build byte-identical populations
# ---------------------------------------------------------------------------


class _ObjectLayout:
    """One object's audience: mirrors plus timed arrival waves."""

    def __init__(self, object_id: int, members: int, pop: PopulationSpec):
        self.object_id = object_id
        self.members = members
        seeded = int(members * pop.seeded_fraction)
        self.mirror_a, self.mirror_b = apportion(seeded, [1.0, 1.0])
        joiners = members - seeded
        sizes = apportion(joiners, wave_weights(pop.wave_profile, pop.waves))
        # Waves land mid-tick (k*interval + 0.5), the catalog's join
        # convention, so packet-fidelity joiners' first packets flow on
        # the next tick.
        self.waves: List[Tuple[float, int]] = [
            ((w + 1) * float(pop.wave_interval) + 0.5, n)
            for w, n in enumerate(sizes)
            if n > 0
        ]


def _population_layout(pop: PopulationSpec) -> List[_ObjectLayout]:
    shares = zipf_shares(pop.objects, pop.zipf_skew)
    counts = apportion(pop.size, shares)
    return [
        _ObjectLayout(obj, members, pop)
        for obj, members in enumerate(counts)
        if members > 0
    ]


def _epoch_interval(spec: ExperimentSpec) -> float:
    kwargs = _reconfig_sim_kwargs(spec, _require_swarm(spec))
    return float(kwargs["reconfigure_every"])


#: Report counters the packet runner sums over its per-object swarms.
_SUMMED = (
    "packets_sent",
    "packets_lost",
    "packets_useful",
    "reconfigurations",
    "reconfig_epochs",
    "control_bytes",
)


def _population_metrics(spec: ExperimentSpec, report) -> Dict[str, float]:
    """One metric vocabulary for both fidelities (the cross-validation
    campaigns difference these keys cell by cell).  ``report`` is the
    flow engine's report or the packet runner's totals over its
    per-object swarms — the same attribute names."""
    population, peers_completed = report.population, report.peers_completed
    completions = report.completions
    delivered = report.packets_sent - report.packets_lost
    metrics = {
        "population": float(population),
        "peers_completed": float(peers_completed),
        "completed_fraction": peers_completed / population if population else 0.0,
        "ticks": float(report.ticks),
        "packets_sent": float(report.packets_sent),
        "packets_lost": float(report.packets_lost),
        "packets_useful": float(report.packets_useful),
        "useful_fraction": (
            report.packets_useful / delivered if delivered > 0 else 0.0
        ),
    }
    members = sum(m for _, m in completions)
    if members:
        metrics["last_completion_tick"] = float(max(t for t, _ in completions))
        metrics["mean_completion_tick"] = (
            sum(t * m for t, m in completions) / members
        )
    if spec.reconfig is not None:
        metrics["reconfigurations"] = float(report.reconfigurations)
        metrics["reconfig_epochs"] = float(report.reconfig_epochs)
        metrics["reconfig_control_bytes"] = float(report.control_bytes)
    return metrics


# ---------------------------------------------------------------------------
# Flow fidelity
# ---------------------------------------------------------------------------


def _run_flow(spec: ExperimentSpec) -> RunResult:
    swarm = _require_swarm(spec)
    pop = spec.population
    assert pop is not None
    target, distinct = swarm.target, swarm.distinct_symbols
    rng = random.Random(derive_seed(spec.seed, "population_flash_crowd"))
    admission, rewiring = _reconfig_policies(spec, rng)
    cohorts: List[CohortDef] = []
    for layout in _population_layout(pop):
        obj = layout.object_id
        for name, members, slice_index in (
            (f"obj{obj}.mirror_a", layout.mirror_a, 0),
            (f"obj{obj}.mirror_b", layout.mirror_b, 1),
        ):
            if members > 0:
                cohorts.append(
                    CohortDef(
                        cohort_id=name,
                        object_id=obj,
                        members=members,
                        demand=target,
                        distinct=distinct,
                        initial_fraction=MIRROR_FRACTION,
                        slice_index=slice_index,
                    )
                )
        for w, (arrival, members) in enumerate(layout.waves):
            cohorts.append(
                CohortDef(
                    cohort_id=f"obj{obj}.wave{w}",
                    object_id=obj,
                    members=members,
                    arrival=arrival,
                    demand=target,
                    distinct=distinct,
                )
            )
    sim = FlowSimulator(
        cohorts,
        rate=pop.rate,
        loss_rate=pop.loss_rate,
        interval=_epoch_interval(spec),
        rate_tiers=pop.rate_tiers,
        rate_spread=pop.rate_spread,
        max_connections=pop.max_connections,
        admission=admission,
        rewiring=rewiring,
        scan_budget=_reconfig(spec).scan_budget,
        strategy_name=spec.strategy.name,
        sample_cap=pop.sample_cap,
        rng=rng,
    )
    report = sim.run(max_ticks=spec.measurement.max_ticks)
    return RunResult(
        spec=spec,
        completed=report.all_complete,
        metrics=_population_metrics(spec, report),
        events=list(report.events),
        extras={"flow_report": report},
    )


# ---------------------------------------------------------------------------
# Packet fidelity: one per-object swarm, same layout, same metric keys
# ---------------------------------------------------------------------------


def _tier_of(index: int, counts: List[int]) -> int:
    """Tier of the ``index``-th member of a group apportioned as ``counts``."""
    for tier, n in enumerate(counts):
        if index < n:
            return tier
        index -= n
    return len(counts) - 1


def _run_packet(spec: ExperimentSpec) -> RunResult:
    swarm = _require_swarm(spec)
    pop = spec.population
    assert pop is not None
    target = swarm.target
    mults = tier_multipliers(pop.rate_tiers, pop.rate_spread)
    tier_counts_cache: Dict[int, List[int]] = {}

    def tier_counts(members: int) -> List[int]:
        counts = tier_counts_cache.get(members)
        if counts is None:
            counts = apportion(members, [1.0] * len(mults))
            tier_counts_cache[members] = counts
        return counts

    totals = SimpleNamespace(
        population=0,
        peers_completed=0,
        ticks=0,
        completions=[],
        **dict.fromkeys(_SUMMED, 0),
    )
    events: List[str] = []
    all_complete = True
    for layout in _population_layout(pop):
        obj = layout.object_id
        node_mult: Dict[str, float] = {}

        def link_factory(chars, sender_id, receiver_id) -> ConstantRateLink:
            return ConstantRateLink(
                pop.rate * node_mult.get(receiver_id, 1.0),
                loss_rate=pop.loss_rate,
            )

        def populate(spec, scn, rng, shared) -> None:
            sim = scn.simulator
            src = f"origin{obj}"
            sim.add_node(OverlayNode(src, target, is_source=True))
            half = int(target * MIRROR_FRACTION)
            slices = _mirror_halves(rng, swarm.distinct_symbols, half, half)
            for group, members, ids in (
                ("a", layout.mirror_a, slices[0]),
                ("b", layout.mirror_b, slices[1]),
            ):
                counts = tier_counts(members)
                for i in range(members):
                    name = f"{group}{i}"
                    node_mult[name] = mults[_tier_of(i, counts)]
                    sim.add_node(
                        OverlayNode(
                            name,
                            target,
                            initial_ids=ids,
                            max_connections=pop.max_connections,
                        )
                    )
                    sim.connect(src, name)

            def make_wave(wave: int, batch: int):
                counts = tier_counts(batch)

                def join_wave() -> None:
                    events.append(
                        f"t={sim.scheduler.now:g} obj{obj} wave of {batch} joins"
                    )
                    for i in range(batch):
                        name = f"w{wave}p{i}"
                        node_mult[name] = mults[_tier_of(i, counts)]
                        sim.add_node(
                            OverlayNode(
                                name, target, max_connections=pop.max_connections
                            )
                        )
                        sim.connect(src, name)

                return join_wave

            for w, (arrival, batch) in enumerate(layout.waves):
                sim.scheduler.schedule_at(arrival, make_wave(w, batch))

        rng = random.Random(derive_seed(spec.seed, "population_flash_crowd", obj))
        scn = _build_swarm(
            spec, populate, rng=rng, stats=None, link_factory=link_factory
        ).scenario
        report = scn.run(max_ticks=spec.measurement.max_ticks)
        finished = [t for t in report.completion_ticks.values() if t is not None]
        totals.completions.extend((float(t), 1) for t in finished)
        totals.population += len(report.completion_ticks)
        totals.peers_completed += len(finished)
        totals.ticks = max(totals.ticks, report.ticks)
        for key in _SUMMED:
            setattr(totals, key, getattr(totals, key) + getattr(report, key))
        all_complete = all_complete and report.all_complete
    return RunResult(
        spec=spec,
        completed=all_complete,
        metrics=_population_metrics(spec, totals),
        events=events,
    )


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


@scenario(
    "population_flash_crowd",
    small_spec=lambda: population_flash_crowd(
        population=16,
        target=48,
        waves=2,
        wave_interval=5.0,
        seeded_fraction=0.25,
        rate_tiers=2,
        seed=9,
        fidelity="flow",
        max_ticks=2_000,
    ),
    description="Zipf-skewed arrival waves rush mirrored objects at population scale",
    small_grid=lambda: {
        "measurement.fidelity": ["packet", "flow"],
        "reconfig.policy": ["informed", "random"],
    },
    fidelities=("packet", "flow"),
    supports=("population", "summary", "reconfig"),
)
def build_population_flash_crowd(spec: ExperimentSpec) -> BuiltExperiment:
    """Serve a PopulationSpec at the selected fidelity."""
    _require_swarm(spec)
    if spec.population is None:
        raise SpecError("population_flash_crowd requires a population spec")
    fidelity = spec.measurement.fidelity
    if fidelity == "flow":
        if spec.strategy.summary is not None:
            raise SpecError(
                "flow fidelity models transfer reconciliation in aggregate; "
                "select the control-plane summary via reconfig.summary"
            )
        if _reconfig(spec).jitter > 0:
            raise SpecError(
                "flow fidelity has no sub-epoch clock; reconfig jitter "
                "applies to the packet engines"
            )
        runner = _run_flow
    else:
        runner = _run_packet

    def run(built: BuiltExperiment) -> RunResult:
        return runner(built.spec)

    return BuiltExperiment(spec=spec, kind="population", runner=run)


__all__ = ["MIRROR_FRACTION", "population_flash_crowd"]
