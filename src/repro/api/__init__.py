"""repro.api — the declarative experiment pipeline.

One shape for every experiment in the repo::

    from repro.api import specs, run

    spec = specs.flash_crowd(num_peers=64, seed=7)   # a frozen value
    text = spec.to_json()                             # archive / diff it
    result = run(spec)                                # -> RunResult
    print(result.metrics, result.overhead)

* :mod:`repro.api.spec` — frozen, JSON-round-trippable spec
  dataclasses (:class:`ExperimentSpec` composing :class:`SwarmSpec`,
  :class:`NodeSpec`, :class:`LinkSpec`, :class:`StrategySpec`,
  :class:`ChurnSpec`, :class:`MeasurementSpec`,
  :class:`PopulationSpec`).
* :mod:`repro.api.registry` — the string-keyed scenario registry
  (:func:`~repro.api.registry.scenario` decorator).  A registration
  *declares what it consumes*: the peer groups (``groups=``) and
  optional spec sections (``supports=``) its builder reads.
* :mod:`repro.api.builders` — the scenario catalog and the one swarm
  assembly.  A scenario is a **spec constructor** (parameters -> a
  complete spec), a **populate function** (who starts with what, who
  is first wired to whom) and its **declared consumption**; simulator,
  transport, join waves, the Section 4 join, departures and the
  per-arm comparison loop are shared.  :mod:`~repro.api.congested`,
  :mod:`~repro.api.adaptive`, :mod:`~repro.api.structured`,
  :mod:`~repro.api.population` and :mod:`~repro.api.tradeoff` hold the
  rest of the catalog over the same helpers.
* :mod:`repro.api.runner` — :func:`build` / :func:`run`.  ``build`` is
  the one consumption gate: a spec section or peer group the scenario
  does not declare is a :class:`SpecError`, never silently ignored.
* :mod:`repro.api.result` — :class:`RunResult` and the shared JSON
  result schema.

``python -m repro.api --spec experiment.json`` runs a spec from disk;
``--list`` shows the registry.
"""

from repro.api import registry, specs
from repro.api.registry import UnknownScenarioError, scenario
from repro.api.result import RESULT_SCHEMA, RunResult
from repro.api.runner import BuiltExperiment, SimScenario, build, run
from repro.api.spec import (
    CatalogSpec,
    ChurnSpec,
    ExperimentSpec,
    LinkRuleSpec,
    LinkSpec,
    MeasurementSpec,
    NodeSpec,
    PopulationSpec,
    ReconfigSpec,
    SpecError,
    StrategySpec,
    SummarySpec,
    SwarmSpec,
    TopologySpec,
    TransportSpec,
)

__all__ = [
    "registry",
    "specs",
    "scenario",
    "UnknownScenarioError",
    "SpecError",
    "ExperimentSpec",
    "SwarmSpec",
    "TopologySpec",
    "CatalogSpec",
    "NodeSpec",
    "LinkSpec",
    "LinkRuleSpec",
    "StrategySpec",
    "SummarySpec",
    "ChurnSpec",
    "ReconfigSpec",
    "MeasurementSpec",
    "PopulationSpec",
    "TransportSpec",
    "BuiltExperiment",
    "SimScenario",
    "build",
    "run",
    "RunResult",
    "RESULT_SCHEMA",
]
