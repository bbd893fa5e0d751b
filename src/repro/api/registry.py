"""String-keyed scenario registry.

A *scenario* is an interpreter for :class:`~repro.api.spec.
ExperimentSpec`s: a builder callable taking a spec and returning a
:class:`~repro.api.runner.BuiltExperiment`.  Builders register under a
stable name with the :func:`scenario` decorator; :func:`repro.api.run`
dispatches on ``spec.scenario``.

Each registration also supplies a ``small_spec`` factory — a miniature
but complete spec for that scenario — which powers the tier-1 smoke
test (every registered scenario runs end-to-end in milliseconds) and
the ``python -m repro.api --scenario <name>`` CLI path.

A registration *declares what it consumes*: the optional spec sections
its builder reads (``supports``, names from :data:`SECTIONS`), the
peer-group names it expects in ``swarm.nodes`` (``groups``) and the
``params`` keys it reads, each with its type, bounds and default
(``params``, a :class:`~repro.api.spec.Bound` per key).
:func:`repro.api.build` holds every spec to that declaration — a
section, group or param the builder would never read, or a param
outside its bounds, is a :class:`~repro.api.spec.SpecError`, not
something to drop silently or crash on.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.api.spec import Bound, ExperimentSpec, SpecError, check_value


class UnknownScenarioError(KeyError):
    """Lookup of a scenario name that nothing registered."""

    def __init__(self, name: str, known: List[str]):
        super().__init__(name)
        self.scenario = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown scenario {self.scenario!r}; registered scenarios: "
            f"{', '.join(self.known) or '(none)'}"
        )


@dataclass
class ScenarioEntry:
    """One registered scenario: builder, docs, and miniature spec/grid.

    ``small_grid`` is the campaign hook: a factory for a miniature
    sweep grid (dotted override path -> values, see
    :meth:`~repro.api.spec.ExperimentSpec.with_override`) that pairs
    with ``small_spec`` to form a complete few-cell
    :class:`~repro.campaign.CampaignSpec` for smoke tests and the
    ``--campaign-scenario`` CLI path.
    """

    name: str
    builder: Callable[[ExperimentSpec], object]
    small_spec: Optional[Callable[[], ExperimentSpec]] = None
    description: str = ""
    small_grid: Optional[Callable[[], Dict[str, list]]] = None
    #: Simulation fidelities the builder can honour
    #: (``spec.measurement.fidelity``); :func:`repro.api.run` rejects a
    #: fidelity the scenario never consults rather than running the
    #: wrong engine silently.
    fidelities: Tuple[str, ...] = ("packet",)
    #: The optional spec sections (:data:`SECTIONS`) this builder
    #: reads.  Filling in a section the scenario never consults is
    #: rejected rather than ignored — the same closed-world rule the
    #: spec keys follow.
    supports: Tuple[str, ...] = ()
    #: The peer-group names the builder expects in ``swarm.nodes``
    #: (beside its one source group); empty = it reads no node groups
    #: at all and the swarm must declare none.
    groups: Tuple[str, ...] = ()
    #: The ``params`` keys the builder reads, each with its type,
    #: bounds and the default a spec that leaves it out reads.
    params: Mapping[str, Bound] = field(default_factory=dict)

    def consumes(self, section: str) -> bool:
        """Whether the builder reads ``section`` (``"churn"`` is read by
        a scenario declaring either of ``churn.join_waves`` /
        ``churn.depart_node``)."""
        return any(
            s == section or s.startswith(section + ".") for s in self.supports
        )


#: Every optional spec section a registration may declare, with the
#: reason a non-consuming scenario gives when refusing it.  The five
#: component names match :data:`repro.api.spec.COMPONENTS`
#: (``summary`` is ``strategy.summary``).
SECTIONS: Dict[str, str] = {
    "population": "has no population model",
    "summary": (
        "never consults strategy.summary (an overlay comparison selects its "
        "summary through reconfig.summary, summary_tradeoff through its "
        "'kinds' param)"
    ),
    "reconfig": "has no adaptive overlay",
    "transport": "has no transport-paced senders",
    "topology": "wires its own fixed overlay, not a generated topology",
    "catalog": "disseminates a single object, not a multi-object catalog",
    "swarm.links": "builds its own links, not the swarm's link rules",
    "churn": (
        "schedules no churn — no join waves, no departures (a population "
        "scenario's arrival waves come from its population spec)"
    ),
    "churn.join_waves": "does not support join waves",
    "churn.depart_node": "does not support departures",
}

_REGISTRY: Dict[str, ScenarioEntry] = {}


def scenario(
    name: str,
    small_spec: Optional[Callable[[], ExperimentSpec]] = None,
    description: str = "",
    small_grid: Optional[Callable[[], Dict[str, list]]] = None,
    fidelities: Tuple[str, ...] = ("packet",),
    supports: Tuple[str, ...] = (),
    groups: Tuple[str, ...] = (),
    params: Optional[Mapping[str, Bound]] = None,
) -> Callable:
    """Class/function decorator registering a spec builder under ``name``.

    ``supports`` lists the optional spec sections (:data:`SECTIONS`)
    the builder reads, ``groups`` the peer-group names it expects and
    ``params`` the ``params`` keys it reads — the declaration
    :func:`repro.api.build` enforces.
    """
    unknown = sorted(set(supports) - set(SECTIONS))
    if unknown:
        raise ValueError(
            f"scenario {name!r} declares unknown spec sections {unknown}; "
            f"known: {sorted(SECTIONS)}"
        )

    def register(builder: Callable[[ExperimentSpec], object]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        doc_lines = (builder.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = ScenarioEntry(
            name=name,
            builder=builder,
            small_spec=small_spec,
            description=description or (doc_lines[0] if doc_lines else ""),
            small_grid=small_grid,
            fidelities=tuple(fidelities),
            supports=tuple(supports),
            groups=tuple(groups),
            params=dict(params or {}),
        )
        return builder

    return register


def get(name: str) -> ScenarioEntry:
    """The registry entry for ``name`` (:class:`UnknownScenarioError` if absent)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, names()) from None


def names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def consumers(section: str) -> List[str]:
    """Names of the registered scenarios that read ``section``."""
    return [n for n in names() if _REGISTRY[n].consumes(section)]


def check_params(spec: ExperimentSpec) -> Dict[str, Any]:
    """Every param ``spec``'s scenario declares, each checked against its
    bound (its default when the spec leaves it out); an undeclared key
    is refused."""
    declared = get(spec.scenario).params
    given = spec.params_dict()
    unknown = sorted(set(given) - set(declared))
    if unknown:
        raise SpecError(
            f"scenario {spec.scenario!r} reads no params {unknown}; it reads: "
            f"{', '.join(sorted(declared)) or '(none)'}"
        )
    values = {}
    for key, bound in declared.items():
        value = values[key] = given.get(key, bound.default)
        if value is not None or bound.default is not None:
            check_value(f"{spec.scenario}.params.{key}", value, bound.type, bound)
    return values


def small_spec(name: str) -> ExperimentSpec:
    """The miniature spec registered for ``name`` (for smoke runs)."""
    entry = get(name)
    if entry.small_spec is None:
        raise SpecError(
            f"scenario {name!r} is registered but supplied no miniature "
            f"spec; pass small_spec= to its @scenario registration"
        )
    return entry.small_spec()


def small_specs() -> Dict[str, ExperimentSpec]:
    """Every scenario's miniature spec, by name."""
    return {n: _REGISTRY[n].small_spec() for n in names() if _REGISTRY[n].small_spec}


def small_grid(name: str) -> Dict[str, list]:
    """The miniature campaign grid registered for ``name`` ({} if none)."""
    entry = get(name)
    return dict(entry.small_grid()) if entry.small_grid is not None else {}


__all__ = [
    "UnknownScenarioError",
    "ScenarioEntry",
    "SECTIONS",
    "scenario",
    "consumers",
    "check_params",
    "get",
    "names",
    "small_spec",
    "small_specs",
    "small_grid",
]
