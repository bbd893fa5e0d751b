"""Scenario catalog: spec constructors, populate functions, one assembly.

Each catalog entry is three small things:

* a **spec constructor** (e.g. :func:`flash_crowd`) mapping the
  scenario's natural parameters to a complete, declarative
  :class:`~repro.api.spec.ExperimentSpec` — the JSON-able value a user
  stores, diffs, and re-runs;
* a **populate function** — the part that is genuinely the scenario's:
  who starts with what, and who is first wired to whom (it draws from
  the run's one RNG in a fixed order, so a seeded spec replays bit for
  bit; ``tests/api/test_api_parity.py`` pins the outputs);
* a **declared consumption** on its :func:`~repro.api.registry.scenario`
  registration (``groups=`` / ``supports=``): the peer groups and
  optional spec sections the populate function reads.
  :func:`repro.api.build` rejects everything else, so no builder
  checks for sections it ignores.

Everything the paper's Section 2 environment shares is assembled once,
here, for every module of the catalog: :func:`_build_swarm` (the only
``OverlaySimulator`` and ``SimScenario`` construction, around a
populate function; keywords swap its defaults),
:func:`_schedule_join_waves`, :func:`_informed_join` (the Section 4
``plan_join`` admit function), :func:`_mirror_halves`, :func:`_run_arms`
(the per-arm comparison loop) and :func:`_transport_setup`.
``build(spec).scenario`` hands back the live
:class:`~repro.api.runner.SimScenario` for callers that drive the
simulator themselves.
"""

import math
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import check_params, scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment, SimScenario, _source_group
from repro.api.spec import (
    Bound,
    ChurnSpec,
    ExperimentSpec,
    LinkRuleSpec,
    LinkSpec,
    MeasurementSpec,
    NodeSpec,
    ReconfigSpec,
    SpecError,
    StrategySpec,
    SwarmSpec,
    check_value,
)
from repro.coding.symbol import FRESH_ID_BASE, FRESH_ID_STRIDE
from repro.delivery.orchestrator import CandidateSender, CandidateStack, plan_join
from repro.delivery.receiver import SimReceiver
from repro.delivery.scenarios import (
    COMPACT_MULTIPLIER,
    make_multi_sender_scenario,
    make_pair_scenario,
)
from repro.delivery.strategies import DEFAULT_DESIRED_MARGIN, make_strategy
from repro.delivery.transfer import simulate_multi_sender_transfer
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    OpenAdmission,
    RandomRewiring,
    SketchAdmission,
    SummaryScheme,
    UtilityRewiring,
    default_scheme,
)
from repro.overlay.simulator import (
    LinkFactory,
    OverlaySimulator,
    SimulationReport,
    default_link,
)
from repro.protocol.peer import CodeParameters, ProtocolPeer
from repro.protocol.session import TransferSession
from repro.reconcile import SummaryPolicy
from repro.seeding import choice, derive_rng, randbelow, sample, shuffle
from repro.sim.engine import EventScheduler
from repro.sim.links import (
    ConstantRateLink,
    GilbertElliottLink,
    GilbertElliottProcess,
)
from repro.sim.sessions import (
    DEFAULT_PACKET_BUDGET_FACTOR,
    ScheduledSession,
    run_sessions,
)
from repro.sim.stats import StatsRecorder
from repro.topology import PathCharacteristics, PathModel, generate
from repro.transport import BottleneckQueue, TransportManager


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------

#: What every scenario that builds an adaptive overlay from declared
#: node groups over the swarm's link rules consumes (the four
#: static-wiring scenarios and the two flash crowds add their churn).
SWARM_SECTIONS = ("summary", "reconfig", "transport", "swarm.links")


def _require_swarm(spec: ExperimentSpec) -> SwarmSpec:
    if spec.swarm is None:
        raise SpecError(f"scenario {spec.scenario!r} requires a swarm spec")
    return spec.swarm


def _summary_policy(spec: ExperimentSpec) -> SummaryPolicy:
    """The spec's summary policy.

    An unset ``strategy.summary`` is the Bloom filter at
    ``strategy.bloom_bits_per_element`` — the same policy, byte for
    byte, as spelling ``summary={"kind": "bloom", "params":
    {"bits_per_element": N}}``.
    """
    if spec.strategy.summary is None:
        return SummaryPolicy(
            "bloom", {"bits_per_element": spec.strategy.bloom_bits_per_element}
        )
    return spec.strategy.summary.policy()


def _rounds_cap(max_packets: int, senders_per_round: int) -> Optional[int]:
    """Translate a total data-packet budget into a round cap.

    ``simulate_multi_sender_transfer`` caps *rounds*, and every round
    moves up to ``senders_per_round`` packets — flooring keeps the
    packet total within the spec's budget.  A budget smaller than one
    round cannot be honoured and is rejected rather than exceeded.
    """
    if not max_packets:
        return None
    if max_packets < senders_per_round:
        raise SpecError(
            f"max_packets={max_packets} is smaller than one round of "
            f"{senders_per_round} senders; raise the budget or drop senders"
        )
    return max_packets // senders_per_round


def _series_recorder(
    spec: ExperimentSpec, force: bool = False
) -> Optional[StatsRecorder]:
    """The spec's time-series recorder, or None with series off
    (``force`` = the runner computes its own metrics from the series)."""
    if force or spec.measurement.record_series:
        return StatsRecorder(resolution=spec.measurement.resolution)
    return None


def _reconfig(spec: ExperimentSpec) -> ReconfigSpec:
    """The spec's reconfig selection; unset is ``ReconfigSpec()`` — the
    informed arm at its defaults on the swarm's own epoch period."""
    return spec.reconfig if spec.reconfig is not None else ReconfigSpec()


def reconfig_scheme(spec: ExperimentSpec) -> SummaryScheme:
    """The :class:`SummaryScheme` a spec's reconfig selection names.

    ``reconfig.summary`` unset resolves to the min-wise calling card
    joins plan over (:func:`~repro.overlay.reconfiguration.
    default_scheme`), so under the default informed arm a node keeps
    one card for joins, admission and rewiring alike.
    """
    summary = _reconfig(spec).summary
    if summary is None:
        return default_scheme()
    return SummaryScheme(summary.kind, summary.params_dict())


def _reconfig_policies(
    spec: ExperimentSpec,
    rng: random.Random,
    arm: Optional[str] = None,
    scheme: Optional[SummaryScheme] = None,
):
    """(admission, rewiring) for a swarm spec's reconfig selection.

    The arms: ``informed`` (summary-driven thresholds and utility
    swaps), ``random`` (uninformed rewiring), ``static`` (no rewiring,
    structural admission only).  ``arm`` overrides the spec's own
    policy (the comparison scenarios construct every arm from one
    spec); ``scheme`` replaces the informed arm's
    :func:`reconfig_scheme` (``cdn_catalog`` wraps it catalog-aware).
    """
    rc = _reconfig(spec)
    arm = arm or rc.policy
    if arm == "informed":
        scheme = scheme or reconfig_scheme(spec)
        return (
            SketchAdmission(scheme, min_usefulness=rc.min_usefulness),
            UtilityRewiring(scheme, hysteresis=rc.hysteresis),
        )
    if arm == "random":
        return OpenAdmission(), RandomRewiring(rng=rng)
    return OpenAdmission(), None  # static


def _require_informed_arm(spec: ExperimentSpec) -> None:
    """A comparison scenario's reconfig spec configures its informed arm."""
    policy = _reconfig(spec).policy
    if policy != "informed":
        raise SpecError(
            f"{spec.scenario} runs every arm itself; its reconfig spec names "
            f"the informed arm's configuration, not {policy!r}"
        )


def _reconfig_sim_kwargs(spec: ExperimentSpec, swarm: SwarmSpec) -> Dict[str, Any]:
    """The epoch kwargs every overlay builder hands the simulator:
    scheduling and scan budget."""
    rc = _reconfig(spec)
    return {
        "reconfigure_every": (
            rc.interval if rc.interval > 0 else swarm.reconfigure_every
        ),
        "reconfig_jitter": rc.jitter,
        "reconfig_budget": rc.scan_budget,
    }


def _transport_setup(
    spec: ExperimentSpec,
    stats: Optional[StatsRecorder],
    link_factory: Optional[LinkFactory] = None,
) -> Tuple[Optional[EventScheduler], Optional[TransportManager], Optional[LinkFactory]]:
    """(scheduler, transport manager, link factory) for the spec's transport.

    ``transport`` unset returns ``(None, None, link_factory)`` — the
    builders stay on their bit-identical historical paths.  Set, it
    assembles the subsystem: an explicit :class:`EventScheduler` (the
    bottleneck queue reads its clock), a shared :class:`BottleneckQueue`
    when ``bottleneck_rate > 0``, a :class:`TransportManager` handing
    each connection its own congestion controller, and a link factory
    giving every constructed link that ``queue`` so all senders contend
    for the one queue.
    """
    ts = spec.transport
    if ts is None:
        return None, None, link_factory
    scheduler = EventScheduler()
    queue = None
    if ts.bottleneck_rate > 0:
        queue = BottleneckQueue(
            ts.bottleneck_rate,
            ts.bottleneck_buffer,
            clock=scheduler,
            stats=stats,
        )
        base_factory = link_factory or default_link

        def bottlenecked(
            chars: PathCharacteristics, sender_id: str, receiver_id: str
        ) -> ConstantRateLink:
            link = base_factory(chars, sender_id, receiver_id)
            link.queue = queue
            return link

        link_factory = bottlenecked
    manager = TransportManager(
        ts.policy,
        ts.params_dict(),
        rto_min=ts.rto_min,
        rto_max=ts.rto_max,
        queue=queue,
    )
    return scheduler, manager, link_factory


def _require_members(
    spec: ExperimentSpec, group: str, least: int, what: str
) -> NodeSpec:
    """The swarm's peer group ``group``, refused below ``least`` members
    (``what`` names the minimum in the refusal)."""
    rule = _require_swarm(spec).group(group)
    if rule.count < least:
        raise SpecError(
            f"{spec.scenario} needs at least {what}; swarm group {group!r} "
            f"has count {rule.count}"
        )
    return rule


def _seeded_count(rule: NodeSpec, swarm: SwarmSpec) -> int:
    """The (upper bound on the) initial symbol count a seeding rule yields.

    ``int(basis * fraction + 1e-9)`` reproduces the legacy integer
    arithmetic (``target // 2``, ``distinct // 2``, ``target // 3``)
    for the fractions the catalog stores.
    """
    basis = swarm.target if rule.seed_basis == "target" else swarm.distinct_symbols
    return int(basis * rule.seed_fraction + 1e-9)


def _initial_ids(rng: random.Random, rule: NodeSpec, swarm: SwarmSpec) -> List[int]:
    """Draw one member's initial working set per the group's seeding rule
    (an ``"empty"`` group draws nothing)."""
    if rule.seeding == "empty":
        return []
    distinct = swarm.distinct_symbols
    bound = _seeded_count(rule, swarm)
    if bound <= 0:
        return []  # a fraction too small to seed a single symbol
    if rule.seeding == "fixed":
        return sample(rng, range(distinct), bound)
    # "uniform": a uniform count in [0, bound).
    return sample(rng, range(distinct), randbelow(rng, bound))


def _seeded_node(
    rng: random.Random, rule: NodeSpec, swarm: SwarmSpec, node_id: str
) -> OverlayNode:
    """One member of ``rule``'s group, seeded per its rule."""
    return OverlayNode(
        node_id,
        swarm.target,
        initial_ids=_initial_ids(rng, rule, swarm),
        max_connections=rule.max_connections,
    )


def _mirror_halves(
    rng: random.Random, distinct: int, count_a: int, count_b: int
) -> Tuple[List[int], List[int]]:
    """Two disjoint slices of one shuffle of the symbol space, for two
    mirror groups: an in-group peering offers nothing, a cross-group
    peering everything (Figure 1's C/D insight, scaled up)."""
    shuffled = list(range(distinct))
    shuffle(rng, shuffled)
    return shuffled[:count_a], shuffled[count_a : count_a + count_b]


def _shared_process(
    link_spec: LinkSpec, shared: Dict[str, GilbertElliottProcess]
) -> GilbertElliottProcess:
    """The keyed loss chain for a spec, created once per shared key."""
    process = shared.get(link_spec.shared_key)
    if process is None:
        process = GilbertElliottProcess(
            link_spec.p_good_bad,
            link_spec.p_bad_good,
            loss_good=link_spec.loss_good,
            loss_bad=link_spec.loss_bad,
        )
        shared[link_spec.shared_key] = process
    return process


def _build_link(
    link_spec: LinkSpec, shared: Dict[str, GilbertElliottProcess]
) -> ConstantRateLink:
    """Instantiate a link from its spec (sharing keyed processes); only
    a ``latency_jitter`` spec's jitter reaches the link."""
    if link_spec.kind in ("constant", "latency_jitter"):
        return ConstantRateLink(
            link_spec.rate,
            loss_rate=link_spec.loss_rate,
            latency=link_spec.latency,
            jitter=link_spec.jitter if link_spec.kind == "latency_jitter" else 0.0,
        )
    # gilbert_elliott
    process = _shared_process(link_spec, shared) if link_spec.shared_key else None
    return GilbertElliottLink(
        link_spec.rate,
        p_good_bad=link_spec.p_good_bad,
        p_bad_good=link_spec.p_bad_good,
        loss_good=link_spec.loss_good,
        loss_bad=link_spec.loss_bad,
        latency=link_spec.latency,
        process=process,
    )


def _node_classes(swarm: SwarmSpec) -> Dict[str, str]:
    """Concrete node id -> link-rule class, from the group definitions."""
    classes: Dict[str, str] = {}
    for group in swarm.nodes:
        for node_id in group.member_ids():
            classes[node_id] = group.node_class
    return classes


def _link_factory_from_rules(
    swarm: SwarmSpec, shared: Dict[str, GilbertElliottProcess]
) -> Optional[LinkFactory]:
    """A per-connection link factory applying the swarm's link rules."""
    if not swarm.links:
        return None
    classes = _node_classes(swarm)

    def factory(
        chars: PathCharacteristics, sender_id: str, receiver_id: str
    ) -> ConstantRateLink:
        link_spec = swarm.link_for(
            classes.get(sender_id, ""), classes.get(receiver_id, "")
        )
        if link_spec is None:
            return default_link(chars, sender_id, receiver_id)
        return _build_link(link_spec, shared)

    return factory


def _shared_processes(swarm: SwarmSpec) -> Dict[str, GilbertElliottProcess]:
    """Pre-create every keyed shared loss process the link rules name."""
    shared: Dict[str, GilbertElliottProcess] = {}
    for rule in swarm.links:
        if rule.link.kind == "gilbert_elliott" and rule.link.shared_key:
            _shared_process(rule.link, shared)
    return shared


def _schedule_shared_process_steps(
    scheduler: EventScheduler,
    stats: Optional[StatsRecorder],
    rng: random.Random,
    shared: Dict[str, GilbertElliottProcess],
    events: Optional[List[str]] = None,
) -> None:
    """Step each shared loss chain once per time unit (mid-tick),
    logging its transitions to ``events``."""
    for key in sorted(shared):
        process = shared[key]
        if stats is not None:
            process.attach_stats(stats, entity=f"loss:{key}", clock=scheduler)

        def step(process=process, key=key) -> None:
            was_bad = process.bad
            process.step(rng)
            if events is not None and process.bad != was_bad:
                state = "bad" if process.bad else "good"
                events.append(f"t={scheduler.now:g} {key} -> {state}")

        scheduler.schedule_every(1.0, step, first=0.5)


def _schedule_departure(scn: SimScenario, churn: Optional[ChurnSpec]) -> None:
    """Schedule the churn spec's departure event, if any (the gate has
    checked that ``depart_node`` names a declared member)."""
    if churn is None or not churn.depart_node:
        return
    sim = scn.simulator

    def depart() -> None:
        node = sim.remove_node(churn.depart_node)
        label = "source" if node is not None and node.is_source else churn.depart_node
        scn.events.append(f"t={sim.scheduler.now:g} {label} departed")

    sim.scheduler.schedule_at(churn.depart_at, depart)


def _schedule_join_waves(
    sim: OverlaySimulator,
    member_ids: Sequence[str],
    churn: Optional[ChurnSpec],
    admit: Callable[[Sequence[str]], None],
    events: Optional[List[str]] = None,
) -> None:
    """Admit ``member_ids`` in ``churn.join_waves`` equal batches, each
    batch by one ``admit(batch)`` call, in order.

    Waves land mid-tick (t = k*interval + 0.5): unambiguously after
    tick k's delivery pass and before tick k+1's, so joiners' first
    packets flow on the next tick.  With no waves declared everyone is
    admitted now, at construction, as one batch.  ``events`` receives
    one line per wave as it lands.
    """
    if churn is None or churn.join_waves < 1:
        admit(member_ids)
        return
    per_wave = math.ceil(len(member_ids) / churn.join_waves)
    for w in range(churn.join_waves):
        batch = member_ids[w * per_wave : (w + 1) * per_wave]
        if not batch:
            continue

        def join_wave(batch=batch) -> None:
            if events is not None:
                events.append(
                    f"t={sim.scheduler.now:g} wave of {len(batch)} joins"
                )
            admit(batch)

        sim.scheduler.schedule_at(
            (w + 1) * float(churn.wave_interval) + 0.5, join_wave
        )


def _informed_join(
    scn: SimScenario,
    rng: random.Random,
    swarm: SwarmSpec,
    joiners: NodeSpec,
    src_name: str,
) -> Callable[[Sequence[str]], None]:
    """The Section 4 join decision as an admit function: each joiner
    plans its senders over the live calling cards (``plan_join``),
    falling back to the source — while it is still a member — when no
    planned sender admits it; a joiner left unconnected is wired by the
    next reconfiguration epoch.  Joins read the default card whatever
    ``reconfig.summary`` names.

    A batch is one scheduler event, so no card changes inside it: the
    live cards are brought current in one batched ``scheme.refresh``
    pass and stacked once (:class:`~repro.delivery.orchestrator.
    CandidateStack`, in ``sim.nodes`` order); a joiner that holds ids
    joins the stack after its connects, as the next joiners' candidate.
    The stack is dropped when the batch is done."""
    sim = scn.simulator
    scheme = default_scheme()
    plans = scn.extras.setdefault("join_plans", {})

    def admit(batch: Sequence[str]) -> None:
        live = [
            n
            for n in sim.nodes.values()
            if not n.is_source and len(n.working_set) > 0
        ]
        scheme.refresh(live)
        # The true set size rides with the card: folded ids may collide.
        stack = CandidateStack(
            CandidateSender(n.node_id, scheme.card_of(n), len(n.working_set))
            for n in live
        )
        for pid in batch:
            node = _seeded_node(rng, joiners, swarm, pid)
            sim.add_node(node)
            card = scheme.card_of(node)
            plan = plans[pid] = plan_join(
                card,
                len(node.working_set),
                stack,
                max_senders=joiners.max_connections,
                symbols_desired=swarm.target,
                rng=rng,
                now=sim.scheduler.now,
            )
            connected = 0
            for sender_id in plan.selection.chosen:
                if sim.connect(sender_id, pid):
                    connected += 1
            if connected == 0 and src_name in sim.nodes:
                sim.connect(src_name, pid)
            if len(node.working_set) > 0:
                stack.append(CandidateSender(pid, card, len(node.working_set)))

    return admit


def _swarm_metrics(report) -> Dict[str, float]:
    delivered = report.packets_sent - report.packets_lost
    metrics = {
        "ticks": float(report.ticks),
        "packets_sent": float(report.packets_sent),
        "packets_lost": float(report.packets_lost),
        "packets_useful": float(report.packets_useful),
        "reconfigurations": float(report.reconfigurations),
        "efficiency": report.efficiency,
    }
    if report.packets_useful:
        metrics["overhead"] = delivered / report.packets_useful
    finished = [t for t in report.completion_ticks.values() if t is not None]
    if finished:
        metrics["last_completion_tick"] = float(max(finished))
    return metrics


def _run_swarm(built: BuiltExperiment) -> RunResult:
    """Shared run/collect path for every swarm scenario."""
    scenario_obj = built.scenario
    assert scenario_obj is not None
    report = scenario_obj.run(max_ticks=built.spec.measurement.max_ticks)
    metrics = _swarm_metrics(report)
    if built.spec.reconfig is not None:
        # Control-plane accounting appears only under an explicit
        # reconfig selection, so default-run metric keys stay exactly
        # the pre-refactor set (parity-pinned).
        metrics["reconfig_epochs"] = float(report.reconfig_epochs)
        metrics["reconfig_control_bytes"] = float(report.control_bytes)
    if built.spec.transport is not None:
        manager = scenario_obj.simulator.transport
        if manager is not None:
            metrics.update(manager.totals())
    return RunResult(
        spec=built.spec,
        completed=report.all_complete,
        metrics=metrics,
        report=report,
        stats=scenario_obj.stats,
        events=list(scenario_obj.events),
        extras=dict(scenario_obj.extras),
    )


_SPEC_SERIES: Any = object()  # stats default: the spec's own series choice


def _build_swarm(
    spec: ExperimentSpec,
    populate: Callable[..., None],
    *,
    rng: random.Random,
    stats: Optional[StatsRecorder] = _SPEC_SERIES,
    arm: Optional[str] = None,
    scheme: Optional[SummaryScheme] = None,
    link_factory: Optional[LinkFactory] = None,
    paths: Optional[PathModel] = None,
    runner: Callable[[BuiltExperiment], RunResult] = _run_swarm,
) -> BuiltExperiment:
    """The one overlay assembly: the run's RNG, the link rules' shared
    loss chains, the simulator and its :class:`SimScenario`; then
    ``populate(spec, scn, rng, shared)`` — the scenario's own part, the
    first to draw from ``rng`` — the declared departure and the loss
    chains' per-tick steps.

    ``rng`` is the run's stream (``Random(spec.seed)`` for a single
    arm).  Each other keyword replaces one default: ``stats``
    (:func:`_series_recorder`; ``None`` records nothing), ``arm`` /
    ``scheme`` (see :func:`_reconfig_policies`), ``link_factory`` (the
    link rules), ``paths`` and ``runner``.
    """
    swarm = _require_swarm(spec)
    if stats is _SPEC_SERIES:
        stats = _series_recorder(spec)
    shared = _shared_processes(swarm)
    link_factory = link_factory or _link_factory_from_rules(swarm, shared)
    admission, rewiring = _reconfig_policies(spec, rng, arm, scheme)
    scheduler, manager, link_factory = _transport_setup(spec, stats, link_factory)
    sim = OverlaySimulator(
        admission=admission,
        rewiring=rewiring,
        strategy_name=spec.strategy.name,
        summary_policy=_summary_policy(spec),
        rng=rng,
        paths=paths,
        link_factory=link_factory,
        stats=stats,
        scheduler=scheduler,
        transport=manager,
        **_reconfig_sim_kwargs(spec, swarm),
    )
    scn = SimScenario(spec.scenario, sim, stats, swarm.target)
    populate(spec, scn, rng, shared)
    _schedule_departure(scn, spec.churn)
    _schedule_shared_process_steps(sim.scheduler, stats, rng, shared, scn.events)
    return BuiltExperiment(spec=spec, kind="swarm", scenario=scn, runner=runner)


def _run_block(
    label: str, report: SimulationReport, detail: str = ""
) -> Tuple[Dict[str, float], str]:
    """One run's shared metrics and its event line."""
    detail = f" {detail}" if detail else ""
    return {
        "ticks": float(report.ticks),
        "useful_fraction": report.efficiency,
        "reconfigurations": float(report.reconfigurations),
        "control_bytes": float(report.control_bytes),
    }, (
        f"{label}: ticks={report.ticks} useful_fraction={report.efficiency:.3f}"
        f"{detail} control_bytes={report.control_bytes}"
    )


def _run_arms(
    spec: ExperimentSpec,
    arms: Sequence[str],
    build_arm: Callable[[str], BuiltExperiment],
    observe: Callable[
        [str, OverlaySimulator, SimulationReport, Optional[StatsRecorder]],
        Tuple[Dict[str, float], str],
    ],
) -> RunResult:
    """The controlled comparison: run every arm of one spec and report
    them side by side.

    ``build_arm(arm)`` is the arm's :func:`_build_swarm` (every arm
    draws the identical construction stream; runs diverge only through
    the policies' own behaviour).  Packet accounting rides the
    simulator's cumulative totals, so an arm cannot improve its
    reported efficiency by discarding connections along with their
    redundant history.  ``observe(arm, sim, report, series)`` returns
    the arm's scenario-specific metrics and the detail its event line
    shows, and may add rows to the cross-arm ``series``.  The headline
    ``informed_useful_gain`` is the informed arm's useful-fraction lead
    over the random arm.
    """
    metrics: Dict[str, float] = {}
    events: List[str] = []
    reports: Dict[str, SimulationReport] = {}
    series = _series_recorder(spec)
    for arm in arms:
        scn = build_arm(arm).scenario
        report = scn.run(max_ticks=spec.measurement.max_ticks)
        reports[arm] = report
        own, detail = observe(arm, scn.simulator, report, series)
        block, line = _run_block(arm, report, detail)
        for key, value in {**block, **own}.items():
            metrics[f"{key}[{arm}]"] = value
        events.append(line)
    metrics["informed_useful_gain"] = (
        metrics["useful_fraction[informed]"] - metrics["useful_fraction[random]"]
    )
    return RunResult(
        spec=spec,
        completed=all(r.all_complete for r in reports.values()),
        metrics=metrics,
        stats=series,
        events=events,
        extras={"reports": reports},
    )


# ---------------------------------------------------------------------------
# Flash crowd
# ---------------------------------------------------------------------------


def flash_crowd(
    num_peers: int = 48,
    target: int = 100,
    initial_seeded: int = 4,
    waves: int = 4,
    wave_interval: float = 20,
    max_connections: int = 3,
    seed: int = 11,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: waves of empty peers rush a small seeded swarm."""
    return ExperimentSpec(
        scenario="flash_crowd",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(
                    name="seed",
                    count=initial_seeded,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=max_connections,
                ),
                NodeSpec(
                    name="p",
                    count=num_peers - initial_seeded,
                    max_connections=max_connections,
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        churn=ChurnSpec(join_waves=waves, wave_interval=wave_interval),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


def _populate_flash_crowd(spec, scn, rng, shared) -> None:
    """Seeds behind the source now; joiners (seeded per their group's
    rule — the catalog's are empty) run the Section 4 join decision at
    their scheduled wave."""
    swarm = spec.swarm
    churn = spec.churn
    if churn is None or churn.join_waves < 1:
        raise SpecError(
            f"{spec.scenario} requires a churn spec with join_waves >= 1"
        )
    joiners = _require_members(spec, "p", 1, "one non-seeded peer")
    sim = scn.simulator
    src_name = _source_group(swarm).member_ids()[0]
    seeds = swarm.group("seed")
    sim.add_node(OverlayNode(src_name, swarm.target, is_source=True))
    for name in seeds.member_ids():
        sim.add_node(_seeded_node(rng, seeds, swarm, name))
        sim.connect(src_name, name)
    _schedule_join_waves(
        sim,
        joiners.member_ids(),
        churn,
        _informed_join(scn, rng, swarm, joiners, src_name),
        events=scn.events,
    )


#: What the flash-crowd assembly consumes (shared with ``congested_swarm``).
FLASH_CROWD_SECTIONS = SWARM_SECTIONS + ("churn.join_waves", "churn.depart_node")


@scenario(
    "flash_crowd",
    small_spec=lambda: flash_crowd(
        num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=1
    ),
    description="Waves of empty peers rush a small seeded swarm",
    supports=FLASH_CROWD_SECTIONS,
    groups=("seed", "p"),
)
def build_flash_crowd(spec: ExperimentSpec) -> BuiltExperiment:
    """Joiners run the Section 4 join decision at their scheduled time."""
    return _build_swarm(spec, _populate_flash_crowd, rng=random.Random(spec.seed))


# ---------------------------------------------------------------------------
# Source departure
# ---------------------------------------------------------------------------


def source_departure(
    num_peers: int = 12,
    target: int = 120,
    depart_at: float = 10.0,
    seed: int = 23,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: the only source leaves mid-transfer; the swarm finishes alone."""
    return ExperimentSpec(
        scenario="source_departure",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.3,
            reconfigure_every=10,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(
                    name="p",
                    count=num_peers,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="distinct",
                    max_connections=3,
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        churn=ChurnSpec(depart_node="src", depart_at=depart_at),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


def _populate_source_departure(spec, scn, rng, shared) -> None:
    swarm = spec.swarm
    sim = scn.simulator
    src_name = _source_group(swarm).member_ids()[0]
    peers = swarm.group("p")
    sim.add_node(OverlayNode(src_name, swarm.target, is_source=True))
    peer_ids = peers.member_ids()
    for pid in peer_ids:
        sim.add_node(_seeded_node(rng, peers, swarm, pid))
        sim.connect(src_name, pid)
    # A sparse peer mesh so perpendicular capacity exists on day one.
    for i, pid in enumerate(peer_ids):
        sim.connect(peer_ids[(i + 1) % len(peer_ids)], pid)


@scenario(
    "source_departure",
    small_spec=lambda: source_departure(num_peers=6, target=60, depart_at=5.0, seed=2),
    description="The only source leaves mid-transfer; the swarm finishes alone",
    supports=SWARM_SECTIONS + ("churn.depart_node",),
    groups=("p",),
)
def build_source_departure(spec: ExperimentSpec) -> BuiltExperiment:
    """Completion after the departure needs peer-to-peer reconciliation."""
    return _build_swarm(
        spec, _populate_source_departure, rng=random.Random(spec.seed)
    )


# ---------------------------------------------------------------------------
# Asymmetric bandwidth
# ---------------------------------------------------------------------------


def asymmetric_bandwidth(
    num_fast: int = 6,
    num_slow: int = 6,
    target: int = 100,
    fast_rate: float = 4.0,
    slow_rate: float = 0.7,
    slow_latency: float = 2.0,
    slow_jitter: float = 1.5,
    seed: int = 31,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: a fast backbone class and a slow, jittery edge class."""
    return ExperimentSpec(
        scenario="asymmetric_bandwidth",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source", node_class="fast"),
                NodeSpec(
                    name="fast",
                    count=num_fast,
                    node_class="fast",
                    seeding="uniform",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=3,
                ),
                NodeSpec(
                    name="slow",
                    count=num_slow,
                    node_class="slow",
                    seeding="uniform",
                    seed_fraction=1.0 / 3.0,
                    seed_basis="target",
                    max_connections=3,
                ),
            ),
            links=(
                LinkRuleSpec(
                    sender_class="fast",
                    link=LinkSpec(kind="constant", rate=fast_rate, loss_rate=0.005),
                ),
                LinkRuleSpec(
                    link=LinkSpec(
                        kind="latency_jitter",
                        rate=slow_rate,
                        latency=slow_latency,
                        jitter=slow_jitter,
                        loss_rate=0.02,
                    ),
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


def _populate_asymmetric_bandwidth(spec, scn, rng, shared) -> None:
    swarm = spec.swarm
    sim = scn.simulator
    src_name = _source_group(swarm).member_ids()[0]
    fast = swarm.group("fast")
    slow = swarm.group("slow")
    fast_ids = fast.member_ids()
    scn.extras["fast_class"] = {src_name, *fast_ids}
    sim.add_node(OverlayNode(src_name, swarm.target, is_source=True))
    for name in fast_ids:
        sim.add_node(_seeded_node(rng, fast, swarm, name))
        sim.connect(src_name, name)
    for i, name in enumerate(slow.member_ids()):
        sim.add_node(_seeded_node(rng, slow, swarm, name))
        # Edge peers bootstrap from the backbone when one exists.
        sim.connect(fast_ids[i % len(fast_ids)] if fast_ids else src_name, name)


@scenario(
    "asymmetric_bandwidth",
    small_spec=lambda: asymmetric_bandwidth(
        num_fast=3, num_slow=3, target=40, seed=3
    ),
    description="A fast backbone class and a slow, jittery edge class in one swarm",
    supports=SWARM_SECTIONS + ("churn.depart_node",),
    groups=("fast", "slow"),
)
def build_asymmetric_bandwidth(spec: ExperimentSpec) -> BuiltExperiment:
    """Heterogeneous per-connection link models from the swarm's rules."""
    return _build_swarm(
        spec, _populate_asymmetric_bandwidth, rng=random.Random(spec.seed)
    )


# ---------------------------------------------------------------------------
# Correlated regional loss
# ---------------------------------------------------------------------------


def correlated_regional_loss(
    peers_per_region: int = 6,
    target: int = 100,
    intra_rate: float = 2.0,
    trunk_rate: float = 2.0,
    p_good_bad: float = 0.04,
    p_bad_good: float = 0.25,
    loss_bad: float = 0.6,
    seed: int = 48,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: two regions bridged by a trunk with shared bursty loss."""
    trunk = LinkSpec(
        kind="gilbert_elliott",
        rate=trunk_rate,
        latency=1.0,
        p_good_bad=p_good_bad,
        p_bad_good=p_bad_good,
        loss_good=0.0,
        loss_bad=loss_bad,
        shared_key="trunk",
    )
    return ExperimentSpec(
        scenario="correlated_regional_loss",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source", node_class="A"),
                NodeSpec(
                    name="a",
                    count=peers_per_region,
                    node_class="A",
                    seeding="uniform",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=3,
                ),
                NodeSpec(
                    name="b",
                    count=peers_per_region,
                    node_class="B",
                    seeding="uniform",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=3,
                ),
            ),
            links=(
                LinkRuleSpec(sender_class="A", receiver_class="B", link=trunk),
                LinkRuleSpec(sender_class="B", receiver_class="A", link=trunk),
                LinkRuleSpec(
                    link=LinkSpec(kind="constant", rate=intra_rate, loss_rate=0.005)
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


def _populate_correlated_regional_loss(spec, scn, rng, shared) -> None:
    swarm = spec.swarm
    sim = scn.simulator
    src_name = _source_group(swarm).member_ids()[0]
    region_a = swarm.group("a")
    region_b = swarm.group("b")
    if region_a.count != region_b.count:
        raise SpecError(
            "correlated_regional_loss requires equal-sized region groups; "
            f"got a={region_a.count}, b={region_b.count}"
        )
    if "trunk" in shared:
        scn.extras["trunk"] = shared["trunk"]
    sim.add_node(OverlayNode(src_name, swarm.target, is_source=True))
    a_ids = region_a.member_ids()
    b_ids = region_b.member_ids()
    for a_name, b_name in zip(a_ids, b_ids):
        sim.add_node(_seeded_node(rng, region_a, swarm, a_name))
        sim.add_node(_seeded_node(rng, region_b, swarm, b_name))
        sim.connect(src_name, a_name)
    # Region B reaches content through the trunk initially.
    for i, b_name in enumerate(b_ids):
        sim.connect(src_name if i == 0 else a_ids[i], b_name)
        if i > 0:
            sim.connect(b_ids[i - 1], b_name)


@scenario(
    "correlated_regional_loss",
    small_spec=lambda: correlated_regional_loss(peers_per_region=3, target=40, seed=4),
    description="Two regions bridged by a trunk with shared bursty loss",
    supports=SWARM_SECTIONS + ("churn.depart_node",),
    groups=("a", "b"),
)
def build_correlated_regional_loss(spec: ExperimentSpec) -> BuiltExperiment:
    """All inter-region links share one Gilbert-Elliott chain."""
    return _build_swarm(
        spec, _populate_correlated_regional_loss, rng=random.Random(spec.seed)
    )


# ---------------------------------------------------------------------------
# Delivery transfers (Figures 5-8 setups)
# ---------------------------------------------------------------------------


def pair_transfer(
    target: int = 1_000,
    multiplier: float = COMPACT_MULTIPLIER,
    correlation: float = 0.0,
    strategy_name: str = "Recode/BF",
    seed: int = 0,
    full_senders: int = 0,
    desired_margin: float = DEFAULT_DESIRED_MARGIN,
    symbols_desired: Optional[int] = None,
    bloom_bits_per_element: int = 8,
    max_packets: int = 0,
) -> ExperimentSpec:
    """Spec: the Figure 5/6 pair layout — one partial sender, one receiver.

    ``full_senders > 0`` adds equal-rate full-content senders (the
    Figure 6 speedup setting); otherwise the single partial sender runs
    to completion (the Figure 5 overhead setting).
    """
    params = {
        "correlation": correlation,
        "full_senders": full_senders,
        "desired_margin": desired_margin,
    }
    if symbols_desired is not None:
        params["symbols_desired"] = symbols_desired
    return ExperimentSpec(
        scenario="pair_transfer",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=multiplier),
        strategy=StrategySpec(
            name=strategy_name, bloom_bits_per_element=bloom_bits_per_element
        ),
        measurement=MeasurementSpec(max_packets=max_packets),
        params=params,
    )


#: The ``params`` both transfer scenarios read.
TRANSFER_PARAMS = {
    "correlation": Bound(float, 0.0, ge=0, lt=1),
    "full_senders": Bound(int, 0, ge=0),
    "desired_margin": Bound(float, DEFAULT_DESIRED_MARGIN, gt=0),
}


def _even_share(params: Dict[str, Any], layout, senders: int) -> int:
    """An even split of the receiver's deficit over ``senders``, with
    the request margin."""
    deficit = layout.target - len(layout.receiver)
    return int(math.ceil(deficit / senders * params["desired_margin"]))


def _run_transfer(
    spec: ExperimentSpec,
    layout,
    sender_sets: Sequence,
    rng: random.Random,
    desired: int,
) -> RunResult:
    """The delivery path both transfer scenarios share: one strategy per
    partial sender (each asked for ``desired`` symbols), the transfer
    loop, and the collected result."""
    receiver = SimReceiver(layout.receiver, layout.target)
    full_senders = check_params(spec)["full_senders"]
    strategies = [
        make_strategy(
            spec.strategy.name,
            sender_set,
            layout.receiver,
            rng,
            symbols_desired=int(desired),
            summary_policy=_summary_policy(spec),
        )
        for sender_set in sender_sets
    ]
    result = simulate_multi_sender_transfer(
        receiver,
        strategies,
        full_senders=full_senders,
        max_rounds=_rounds_cap(
            spec.measurement.max_packets, len(strategies) + full_senders
        ),
    )
    return RunResult(
        spec=spec,
        completed=result.completed,
        metrics={
            "overhead": result.overhead,
            "speedup": result.speedup,
            "rounds": float(result.rounds),
            "packets_sent": float(result.packets_sent),
            "useful_needed": float(result.useful_needed),
            "receiver_final_count": float(result.receiver_final_count),
        },
        transfer=result,
        extras={"layout": layout, "realised_correlation": layout.correlation},
    )


@scenario(
    "pair_transfer",
    small_spec=lambda: pair_transfer(target=120, correlation=0.2, seed=5),
    description="Figure 5/6 pair layout: one partial sender, one receiver",
    small_grid=lambda: {"params.correlation": [0.0, 0.3]},
    supports=("summary",),
    params={**TRANSFER_PARAMS, "symbols_desired": Bound(int, None, ge=1)},
)
def build_pair_transfer(spec: ExperimentSpec) -> BuiltExperiment:
    """Compact/stretched pair layout + strategy + transfer loop."""
    swarm = _require_swarm(spec)
    params = check_params(spec)

    def run(built: BuiltExperiment) -> RunResult:
        rng = random.Random(spec.seed)
        layout = make_pair_scenario(
            swarm.target, swarm.distinct_multiplier, params["correlation"], rng
        )
        full_senders = params["full_senders"]
        desired = params["symbols_desired"]
        if desired is None:
            if full_senders == 0:
                desired = layout.target - len(layout.receiver)
            else:
                desired = _even_share(params, layout, 1 + full_senders)
        return _run_transfer(spec, layout, [layout.sender], rng, desired)

    return BuiltExperiment(spec=spec, kind="transfer", runner=run)


def multi_sender_transfer(
    target: int = 1_000,
    multiplier: float = COMPACT_MULTIPLIER,
    correlation: float = 0.0,
    num_senders: int = 2,
    strategy_name: str = "Recode/BF",
    seed: int = 0,
    full_senders: int = 0,
    desired_margin: float = DEFAULT_DESIRED_MARGIN,
    bloom_bits_per_element: int = 8,
    max_packets: int = 0,
) -> ExperimentSpec:
    """Spec: the Figure 7/8 layout — parallel partial senders, shared core."""
    return ExperimentSpec(
        scenario="multi_sender_transfer",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=multiplier),
        strategy=StrategySpec(
            name=strategy_name, bloom_bits_per_element=bloom_bits_per_element
        ),
        measurement=MeasurementSpec(max_packets=max_packets),
        params={
            "correlation": correlation,
            "num_senders": num_senders,
            "full_senders": full_senders,
            "desired_margin": desired_margin,
        },
    )


@scenario(
    "multi_sender_transfer",
    small_spec=lambda: multi_sender_transfer(
        target=120, correlation=0.2, num_senders=2, seed=6
    ),
    description="Figure 7/8 layout: parallel partial senders over a shared core",
    small_grid=lambda: {"strategy.name": ["Random", "Recode/BF"]},
    supports=("summary",),
    params={**TRANSFER_PARAMS, "num_senders": Bound(int, 2, ge=1)},
)
def build_multi_sender_transfer(spec: ExperimentSpec) -> BuiltExperiment:
    """Shared-core layout + per-sender strategies + round-robin loop."""
    swarm = _require_swarm(spec)
    params = check_params(spec)

    def run(built: BuiltExperiment) -> RunResult:
        rng = random.Random(spec.seed)
        num_senders = params["num_senders"]
        layout = make_multi_sender_scenario(
            swarm.target,
            swarm.distinct_multiplier,
            params["correlation"],
            num_senders,
            rng,
        )
        return _run_transfer(
            spec, layout, layout.senders, rng, _even_share(params, layout, num_senders)
        )

    return BuiltExperiment(spec=spec, kind="transfer", runner=run)


# ---------------------------------------------------------------------------
# Protocol sessions on the event clock
# ---------------------------------------------------------------------------


def session_swarm(
    num_receivers: int = 2,
    num_blocks: int = 80,
    block_size: int = 32,
    rate: float = 2.0,
    latency: float = 0.0,
    seed: int = 0,
    max_time: float = 100_000.0,
) -> ExperimentSpec:
    """Spec: one source serving N receivers with full byte-level sessions.

    Every receiver runs the complete informed protocol (handshake,
    summary, recoded payload streaming) as a
    :class:`~repro.sim.sessions.ScheduledSession` on one shared clock;
    the result carries per-node :class:`~repro.protocol.session.
    SessionStats`.
    """
    if float(max_time) != int(max_time) or max_time < 1:
        raise SpecError(
            f"max_time must be a positive whole number of time units, got {max_time!r}"
        )
    return ExperimentSpec(
        scenario="session_swarm",
        seed=seed,
        swarm=SwarmSpec(
            target=num_blocks,
            distinct_multiplier=1.0,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(name="dst", count=num_receivers),
            ),
            links=(
                LinkRuleSpec(
                    link=LinkSpec(kind="constant", rate=rate, latency=latency)
                ),
            ),
        ),
        measurement=MeasurementSpec(max_ticks=int(max_time)),
        params={"block_size": block_size},
    )


@scenario(
    "session_swarm",
    small_spec=lambda: session_swarm(num_receivers=2, num_blocks=40, seed=7),
    description="One source serving N receivers with byte-level protocol sessions",
    supports=("summary", "transport", "swarm.links"),
    groups=("dst",),
    params={
        "block_size": Bound(int, 32, ge=1),
        "packet_budget_factor": Bound(float, DEFAULT_PACKET_BUDGET_FACTOR, gt=0),
    },
)
def build_session_swarm(spec: ExperimentSpec) -> BuiltExperiment:
    """Full-protocol sessions paced by link models on a shared clock."""
    swarm = _require_swarm(spec)
    receivers = _require_members(spec, "dst", 1, "one receiver")
    params = check_params(spec)
    if spec.measurement.max_packets:
        # The spec's budget is a swarm total, split evenly per session.
        session_cap = spec.measurement.max_packets // receivers.count
        if session_cap < 1:
            raise SpecError(
                f"max_packets={spec.measurement.max_packets} is smaller than "
                f"one packet per receiver"
            )
    else:
        # The per-session budget default, spec-addressable: a multiple
        # of the recovery target rather than a magic constant.
        session_cap = max(1, int(params["packet_budget_factor"] * swarm.target))
    src_group = _source_group(swarm)
    src_name = src_group.member_ids()[0]
    link_spec = swarm.link_for(
        src_group.node_class, receivers.node_class
    ) or LinkSpec(kind="constant", rate=2.0)

    def run(built: BuiltExperiment) -> RunResult:
        code = CodeParameters(
            num_blocks=swarm.target,
            block_size=params["block_size"],
            stream_seed=spec.seed,
        )
        content_rng = derive_rng(spec.seed, "session_swarm", "content")
        content = bytes(
            randbelow(content_rng, 256)
            for _ in range(code.num_blocks * code.block_size)
        )
        stats = _series_recorder(spec)
        shared: Dict[str, GilbertElliottProcess] = {}
        # One transport assembly for sessions and swarms alike: every
        # session's link drains through the shared bottleneck, if any.
        scheduler, manager, link_for = _transport_setup(
            spec, stats, lambda chars, s, r: _build_link(link_spec, shared)
        )
        scheduler = scheduler or EventScheduler()
        policy = _summary_policy(spec)
        source = ProtocolPeer(src_name, code, content=content)
        drivers = []
        sessions = {}
        for name in receivers.member_ids():
            session = TransferSession(
                source,
                ProtocolPeer(name, code),
                rng=derive_rng(spec.seed, "session_swarm", name, "session"),
                summary_policy=policy,
            )
            sessions[name] = session
            link = link_for(None, src_name, name)
            ctrl = manager.attach(name) if manager is not None else None
            drivers.append(
                ScheduledSession(
                    scheduler,
                    session,
                    link,
                    name=name,
                    stats=stats,
                    max_packets=session_cap,
                    transport=None if ctrl is None else (
                        ctrl,
                        derive_rng(spec.seed, "session_swarm", name, "transport"),
                    ),
                ).start()
            )
        # Keyed Gilbert-Elliott chains are shared across the sessions'
        # links and stepped on their own stream.
        _schedule_shared_process_steps(
            scheduler, stats, derive_rng(spec.seed, "session_swarm", "loss"), shared
        )
        run_sessions(scheduler, drivers, max_time=float(spec.measurement.max_ticks))
        node_sessions = {name: s.stats for name, s in sessions.items()}
        completed = all(s.completed for s in node_sessions.values())
        durations = [
            s.duration for s in node_sessions.values() if s.duration is not None
        ]
        control = sum(s.control_bytes for s in node_sessions.values())
        data = sum(s.data_bytes for s in node_sessions.values())
        metrics = {
            "completed_sessions": float(
                sum(1 for s in node_sessions.values() if s.completed)
            ),
            "control_bytes": float(control),
            "data_bytes": float(data),
            "control_fraction": control / (control + data) if control + data else 0.0,
            "packets_sent": float(sum(d.packets_sent for d in drivers)),
        }
        if durations:
            metrics["mean_duration"] = sum(durations) / len(durations)
            metrics["max_duration"] = max(durations)
        if manager is not None:
            metrics.update(manager.totals())
        return RunResult(
            spec=spec,
            completed=completed,
            metrics=metrics,
            node_sessions=node_sessions,
            stats=stats,
            events=[
                f"t={s.finished_at:g} {name} "
                + ("decoded" if s.completed else "stopped")
                for name, s in sorted(node_sessions.items())
                if s.finished_at is not None
            ],
        )

    return BuiltExperiment(spec=spec, kind="sessions", runner=run)


# ---------------------------------------------------------------------------
# Overlay catalog: the paper's Figure 1 and the randomised overlay
# ---------------------------------------------------------------------------


def figure1(
    target: int = 400,
    seed: int = 5,
    with_perpendicular: bool = True,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: the paper's Figure 1 topology with working sets as captioned.

    Working sets: S full; A, B different halves; C, D, E quarters with
    C and D disjoint.  ``with_perpendicular`` adds the collaborative
    edges of Figure 1(c), subject to sketch admission.
    """
    return ExperimentSpec(
        scenario="figure1",
        seed=seed,
        swarm=SwarmSpec(target=target),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
        params={"with_perpendicular": with_perpendicular},
    )


def _populate_figure1(spec, scn, rng, shared) -> None:
    sim = scn.simulator
    target = scn.target
    distinct = list(range(target))
    shuffle(rng, distinct)
    half = target // 2
    quarter = target // 4
    sets = {
        "A": distinct[:half],
        "B": distinct[half:],
        "C": distinct[:quarter],
        "D": distinct[quarter : 2 * quarter],  # disjoint from C
        "E": distinct[half : half + quarter],
    }
    if spec.reconfig is None:
        # The figure contrasts fixed layouts: admission only, no rewiring.
        sim.rewiring = None
    sim.add_node(OverlayNode("S", target, is_source=True))
    for name, ids in sets.items():
        sim.add_node(OverlayNode(name, target, initial_ids=ids))
    # Figure 1(a): the initial multicast tree.
    for parent, child in (("S", "A"), ("S", "B"), ("A", "C"), ("A", "D"), ("B", "E")):
        sim.connect(parent, child)
    if check_params(spec)["with_perpendicular"]:
        # Figure 1(c/d): collaborative transfers between complementary
        # working sets (the legend's beneficial exchanges).
        for sender, receiver in (
            ("B", "A"), ("A", "B"),
            ("C", "D"), ("D", "C"),
            ("B", "C"), ("D", "E"), ("E", "D"), ("C", "E"),
        ):
            sim.connect(sender, receiver)


@scenario(
    "figure1",
    small_spec=lambda: figure1(target=120, seed=5),
    description="The paper's Figure 1 layout: tree vs perpendicular transfers",
    supports=("summary", "reconfig", "transport"),
    params={"with_perpendicular": Bound(bool, True)},
)
def build_figure1(spec: ExperimentSpec) -> BuiltExperiment:
    """Captioned working sets + the figure's tree/perpendicular edges."""
    return _build_swarm(spec, _populate_figure1, rng=random.Random(spec.seed))


def random_overlay(
    num_peers: int = 12,
    target: int = 400,
    num_sources: int = 1,
    initial_fraction_lo: float = 0.0,
    initial_fraction_hi: float = 0.6,
    max_connections: int = 3,
    seed: int = 17,
    strategy_name: str = "Recode/BF",
    with_physical: bool = True,
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: a randomised adaptive overlay — sources plus seeded peers.

    Peers start with random slices of the symbol space sized uniformly
    in ``[initial_fraction_lo, initial_fraction_hi)`` of the target;
    every peer bootstraps from a source and the reconfiguration policy
    discovers perpendicular bandwidth on its own — the Section 2
    environment.
    """
    return ExperimentSpec(
        scenario="random_overlay",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=1.2),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
        params={
            "num_peers": num_peers,
            "num_sources": num_sources,
            "initial_fraction_lo": initial_fraction_lo,
            "initial_fraction_hi": initial_fraction_hi,
            "max_connections": max_connections,
            "with_physical": with_physical,
        },
    )


@scenario(
    "random_overlay",
    small_spec=lambda: random_overlay(num_peers=6, target=100, seed=8),
    description="Randomised adaptive overlay: seeded peers discover each other",
    supports=("summary", "reconfig", "transport"),
    params={
        "num_peers": Bound(int, 12, ge=1),
        "num_sources": Bound(int, 1, ge=1),
        "initial_fraction_lo": Bound(float, 0.0, ge=0, le=1),
        "initial_fraction_hi": Bound(float, 0.6, ge=0, le=1),
        "max_connections": Bound(int, 3, ge=0),
        "with_physical": Bound(bool, True),
    },
)
def build_random_overlay(spec: ExperimentSpec) -> BuiltExperiment:
    """Seeded peers behind one source, optionally over a physical net."""
    params = check_params(spec)
    num_peers = params["num_peers"]
    num_sources = params["num_sources"]
    lo = params["initial_fraction_lo"]
    hi = params["initial_fraction_hi"]
    max_connections = params["max_connections"]
    check_value("random_overlay.params.initial_fraction_hi", hi, float, Bound(ge=lo))
    physical = None
    if params["with_physical"]:
        # A scale-free router core (the hub links are where redundant
        # virtual paths pile up), link properties on their own stream.
        physical = PathModel.over(
            generate("scale_free", max(4, num_peers // 2), spec.seed, attach=2),
            derive_rng(spec.seed, "topology", "links"),
        )

    def populate(spec, scn, rng, shared) -> None:
        sim = scn.simulator
        target = scn.target
        nodes: Dict[str, OverlayNode] = {}
        routers = physical.routers() if physical is not None else []
        distinct = spec.swarm.distinct_symbols
        for i in range(num_sources):
            node = OverlayNode(
                f"src{i}", target, is_source=True,
                fresh_id_start=FRESH_ID_BASE + i * FRESH_ID_STRIDE,
            )
            nodes[node.node_id] = node
        for i in range(num_peers):
            frac = rng.uniform(lo, hi)
            count = int(frac * target)
            ids = sample(rng, range(distinct), count) if count else []
            nodes[f"p{i}"] = OverlayNode(
                f"p{i}", target, initial_ids=ids, max_connections=max_connections
            )
        for node in nodes.values():
            if physical is not None and routers:
                physical.attach_host(
                    node.node_id,
                    choice(rng, routers),
                    bandwidth=rng.uniform(2.0, 6.0),
                    loss_rate=rng.uniform(0.0, 0.01),
                )
            sim.add_node(node)
        # Seed the overlay: every peer connects to a source, then rewiring
        # discovers perpendicular bandwidth on its own.
        source_ids = [n.node_id for n in nodes.values() if n.is_source]
        for node in nodes.values():
            if not node.is_source:
                sim.connect(choice(rng, source_ids), node.node_id)

    return _build_swarm(spec, populate, rng=random.Random(spec.seed), paths=physical)


__all__ = [
    "flash_crowd",
    "source_departure",
    "asymmetric_bandwidth",
    "correlated_regional_loss",
    "pair_transfer",
    "multi_sender_transfer",
    "session_swarm",
    "figure1",
    "random_overlay",
    "reconfig_scheme",
]
