"""The single entry point: ``build(spec)`` / ``run(spec) -> RunResult``.

``run`` is the whole pipeline the repo's scenario catalogs, figure
scripts, benchmarks, and CLI now share: look the spec's scenario up in
the registry, let its builder construct topology, link models,
sessions, and strategies (every RNG derived from the spec's master
seed), execute, and return a structured :class:`~repro.api.result.
RunResult`.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.api import registry
from repro.api.result import RunResult
from repro.api.spec import ExperimentSpec, SpecError
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

    Selections the scenario would never consult are rejected here, once,
    rather than silently ignored by each builder: a fidelity the
    registration does not declare, or a population spec on a scenario
    with no population model.
    """
    entry = registry.get(spec.scenario)
    fidelity = spec.measurement.fidelity
    if fidelity not in entry.fidelities:
        raise SpecError(
            f"scenario {spec.scenario!r} supports fidelity "
            f"{sorted(entry.fidelities)}, not {fidelity!r}; the flow fidelity "
            "applies to the population scenarios (population_flash_crowd)"
        )
    if spec.population is not None and not entry.uses_population:
        raise SpecError(
            f"scenario {spec.scenario!r} has no population model; a "
            "population spec applies to the population scenarios "
            "(population_flash_crowd)"
        )
    for name, hint in _GATED_COMPONENTS:
        if spec.component(name) is not None and name not in entry.supports:
            supporting = sorted(
                n for n in registry.names() if name in registry.get(n).supports
            )
            raise SpecError(
                f"scenario {spec.scenario!r} {hint}; a {name} spec applies "
                f"to: {', '.join(supporting) or '(none)'}"
            )
    return entry.builder(spec)


#: Registered components only some scenarios honour, with the reason a
#: non-supporting scenario gives when rejecting one.  Summary and
#: reconfig are absent deliberately: every swarm scenario interprets
#: them, and the builders that cannot raise their own targeted errors.
_GATED_COMPONENTS = (
    ("transport", "has no transport-paced senders"),
    ("topology", "wires its own fixed overlay, not a generated topology"),
    ("catalog", "disseminates a single object, not a multi-object catalog"),
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
