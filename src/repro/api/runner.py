"""The single entry point: ``build(spec)`` / ``run(spec) -> RunResult``.

``run`` is the whole pipeline the repo's scenario catalogs, figure
scripts, benchmarks, and CLI now share: look the spec's scenario up in
the registry, let its builder construct topology, link models,
sessions, and strategies (every RNG derived from the spec's master
seed), execute, and return a structured :class:`~repro.api.result.
RunResult`.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.api import registry
from repro.api.result import RunResult
from repro.api.spec import COMPONENTS, ExperimentSpec, NodeSpec, SpecError, SwarmSpec
from repro.overlay.simulator import OverlaySimulator, SimulationReport
from repro.sim.stats import StatsRecorder


@dataclass
class SimScenario:
    """A ready-to-run swarm scenario: simulator, recorder, and an event log."""

    name: str
    simulator: OverlaySimulator
    stats: Optional[StatsRecorder]
    target: int
    events: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def run(self, max_ticks: int = 10_000) -> SimulationReport:
        return self.simulator.run(max_ticks=max_ticks)


@dataclass
class BuiltExperiment:
    """A spec interpreted but not yet executed.

    ``kind`` tags the layer the scenario runs at: ``"swarm"`` (overlay
    simulator — ``scenario`` holds the ready-to-run
    :class:`SimScenario`), ``"transfer"`` (delivery loops), or
    ``"sessions"`` (byte-level protocol sessions).
    """

    spec: ExperimentSpec
    kind: str
    runner: Callable[["BuiltExperiment"], RunResult]
    #: Swarm scenarios: the scenario bundle (simulator + stats + event
    #: log), exposed so hands-on callers can drive it directly.
    scenario: Optional[SimScenario] = field(default=None)

    def run(self) -> RunResult:
        """Execute the experiment and collect its :class:`RunResult`."""
        return self.runner(self)


def build(spec: ExperimentSpec) -> BuiltExperiment:
    """Interpret a spec: construct the experiment without running it.

    This is the one consumption gate.  Whatever the scenario's
    registration does not declare it reads — a fidelity, an optional
    spec section (population, summary, reconfig, transport, topology,
    catalog, link rules, join waves, a departure), a peer group, a
    ``params`` key — is rejected here, once, rather than silently
    ignored by the builder, and so is a param outside its declared
    bounds; the builders themselves only check what they *require*.
    """
    entry = registry.get(spec.scenario)
    fidelity = spec.measurement.fidelity
    if fidelity not in entry.fidelities:
        raise SpecError(
            f"scenario {spec.scenario!r} supports fidelity "
            f"{sorted(entry.fidelities)}, not {fidelity!r}; the flow fidelity "
            "applies to the population scenarios (population_flash_crowd)"
        )
    for section in _sections_set(spec):
        if not entry.consumes(section):
            raise SpecError(
                f"scenario {spec.scenario!r} {registry.SECTIONS[section]}; "
                f"{section} applies to: "
                f"{', '.join(registry.consumers(section)) or '(none)'}"
            )
    _check_membership(spec, entry)
    registry.check_params(spec)
    return entry.builder(spec)


def _sections_set(spec: ExperimentSpec) -> Iterator[str]:
    """The optional sections (:data:`registry.SECTIONS`) a spec fills in."""
    if spec.population is not None:
        yield "population"
    for name in COMPONENTS:
        if spec.component(name) is not None:
            yield name
    if spec.swarm is not None and spec.swarm.links:
        yield "swarm.links"
    if spec.churn is not None:
        # Even an empty churn spec is refused where nothing reads it.
        yield "churn"
        if spec.churn.join_waves:
            yield "churn.join_waves"
        if spec.churn.depart_node:
            yield "churn.depart_node"


def _source_group(swarm: SwarmSpec) -> NodeSpec:
    """The swarm's single source group (the builders honour its name
    and link-rule class; multi-source swarms are not yet expressible)."""
    sources = [g for g in swarm.nodes if g.role == "source"]
    if len(sources) != 1 or sources[0].count != 1:
        raise SpecError(
            "swarm scenarios require exactly one source group with count=1; "
            f"got {[(g.name, g.count) for g in sources]}"
        )
    return sources[0]


def _check_membership(spec: ExperimentSpec, entry: registry.ScenarioEntry) -> None:
    """Hold ``swarm.nodes`` (and a departure's target) to the declaration."""
    if spec.swarm is None:
        if entry.groups:
            raise SpecError(f"scenario {spec.scenario!r} requires a swarm spec")
        return
    nodes = spec.swarm.nodes
    if not entry.groups:
        if nodes:
            raise SpecError(
                f"scenario {spec.scenario!r} reads no swarm.nodes (its "
                "membership comes from its params or population spec); the "
                f"swarm spec must declare no node groups, got "
                f"{[g.name for g in nodes]}"
            )
        return
    _source_group(spec.swarm)
    peer_groups = [g.name for g in nodes if g.role != "source"]
    if sorted(peer_groups) != sorted(entry.groups):
        raise SpecError(
            f"scenario {spec.scenario!r} expects exactly the peer groups "
            f"{sorted(entry.groups)}; the swarm declares {peer_groups}"
        )
    churn = spec.churn
    if churn is not None and churn.depart_node:
        if not any(churn.depart_node in g.member_ids() for g in nodes):
            declared = ", ".join(
                ids[0] if len(ids) == 1 else f"{ids[0]}..{ids[-1]}"
                for ids in (g.member_ids() for g in nodes)
                if ids
            )
            raise SpecError(
                f"churn.depart_node {churn.depart_node!r} names no declared "
                f"member of the swarm; declared member ids: {declared}"
            )


def run(spec: ExperimentSpec) -> RunResult:
    """Build and execute a spec; the one-call experiment pipeline."""
    return build(spec).run()


def run_spec_json(text: str, include_series: bool = False) -> dict:
    """Run a JSON-serialised spec and return the serialised result.

    The process-boundary-safe entry the campaign executor's worker
    processes call: both sides of the hop are plain JSON-compatible
    values, so a cell replays bit-identically whichever process (or
    machine) it lands on.
    """
    result = run(ExperimentSpec.from_json(text))
    return result.to_dict(include_series=include_series)


__all__ = ["BuiltExperiment", "SimScenario", "build", "run", "run_spec_json"]
