"""Frozen, JSON-round-trippable experiment specifications.

An :class:`ExperimentSpec` is the single declarative description of an
experiment: which registered scenario interprets it, the master seed,
and the component specs — swarm population (:class:`SwarmSpec` of
:class:`NodeSpec` groups), link classes (:class:`LinkSpec` selected by
:class:`LinkRuleSpec`), sender strategy (:class:`StrategySpec`),
membership churn (:class:`ChurnSpec`), and measurement knobs
(:class:`MeasurementSpec`).  Specs are immutable values: they hash,
compare, and round-trip through JSON losslessly (``spec ==
ExperimentSpec.from_json(spec.to_json())``), so a spec file *is* the
experiment and can be diffed, archived, and re-run bit-identically.

Construction helpers for the scenario catalog live in
:mod:`repro.api.builders`; :func:`repro.api.run` executes a spec.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.overlay.reconfiguration import DEFAULT_HYSTERESIS, DEFAULT_MIN_USEFULNESS

#: Link model kinds a :class:`LinkSpec` may name.
LINK_KINDS = ("constant", "latency_jitter", "gilbert_elliott")

#: Initial working-set rules a :class:`NodeSpec` may name.
SEEDING_RULES = ("empty", "fixed", "uniform")

#: Bases the seeding fraction may be taken against.
SEED_BASES = ("target", "distinct")

#: Node roles.
NODE_ROLES = ("peer", "source")

#: Reconfiguration policy kinds a :class:`ReconfigSpec` may name.
RECONFIG_POLICIES = ("informed", "random", "static")

#: Values ``MeasurementSpec.engine`` accepts (the field is inert).
ENGINES = ("reference", "columnar")

#: Simulation fidelities a :class:`MeasurementSpec` may select:
#: ``"packet"`` runs the per-symbol event engines, ``"flow"`` the
#: rate-equation population engine (:mod:`repro.flow`).
FIDELITIES = ("packet", "flow")

#: Arrival-wave shapes a :class:`PopulationSpec` may name.
WAVE_PROFILES = ("uniform", "flash", "diurnal")



class SpecError(ValueError):
    """A spec failed validation or deserialisation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _require_finite(spec: object, names: Tuple[str, ...]) -> None:
    """Infinity and NaN have no JSON spelling and poison the arithmetic
    a spec feeds, so a float field must be finite."""
    for name in names:
        value = getattr(spec, name)
        _require(math.isfinite(value), f"{name} must be finite, got {value!r}")


def _require_int(value: object, name: str) -> None:
    """Strict integer check: a JSON 7.5 (or true) must not pass as 7."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class LinkSpec:
    """One link model class, by kind and parameters.

    ``shared_key`` couples links: every link built from rules whose
    specs carry the same non-empty key shares one loss process (the
    correlated-loss trunk of
    :func:`repro.api.builders.correlated_regional_loss`).
    """

    kind: str = "constant"
    rate: float = 1.0
    loss_rate: float = 0.0
    latency: float = 0.0
    jitter: float = 0.0
    p_good_bad: float = 0.05
    p_bad_good: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 0.5
    shared_key: str = ""

    def __post_init__(self) -> None:
        # Bounds mirror the link-model constructors exactly, so a spec
        # that validates can always be built.
        _require(self.kind in LINK_KINDS, f"unknown link kind {self.kind!r}; expected one of {LINK_KINDS}")
        _require(self.rate >= 0.0, "link rate must be non-negative")
        _require(self.latency >= 0.0, "latency must be non-negative")
        _require(self.jitter >= 0.0, "jitter must be non-negative")
        _require(0.0 <= self.loss_rate < 1.0, "loss_rate must lie in [0, 1)")
        for field_name in ("loss_good", "loss_bad"):
            value = getattr(self, field_name)
            _require(0.0 <= value <= 1.0, f"{field_name} must lie in [0, 1]")
        if self.kind == "gilbert_elliott":
            for field_name in ("p_good_bad", "p_bad_good"):
                value = getattr(self, field_name)
                _require(0.0 < value <= 1.0, f"{field_name} must lie in (0, 1]")


@dataclass(frozen=True)
class LinkRuleSpec:
    """Maps (sender class, receiver class) to a link class; ``*`` matches all.

    Rules are tried in order; the first match wins.
    """

    sender_class: str = "*"
    receiver_class: str = "*"
    link: LinkSpec = LinkSpec()

    def matches(self, sender_class: str, receiver_class: str) -> bool:
        return self.sender_class in ("*", sender_class) and self.receiver_class in (
            "*",
            receiver_class,
        )


@dataclass(frozen=True)
class NodeSpec:
    """A *group* of nodes sharing a role, class, and seeding rule.

    Members are named ``f"{name}{i}"`` for ``i in range(count)`` —
    except single-member source groups, which use ``name`` verbatim
    (the catalog's ``"src"``).

    Seeding rules (initial working set, sampled from the scenario RNG):

    * ``empty`` — starts with nothing;
    * ``fixed`` — exactly ``int(basis * seed_fraction)`` symbols;
    * ``uniform`` — a uniform count in ``[0, int(basis * seed_fraction))``;

    where ``basis`` is the swarm target or its distinct-symbol count per
    ``seed_basis``.
    """

    name: str = "p"
    count: int = 1
    role: str = "peer"
    node_class: str = ""
    seeding: str = "empty"
    seed_fraction: float = 0.0
    seed_basis: str = "target"
    max_connections: int = 3

    def __post_init__(self) -> None:
        _require_int(self.count, "node count")
        _require_int(self.max_connections, "max_connections")
        _require(self.count >= 0, "node count must be non-negative")
        _require(self.role in NODE_ROLES, f"unknown node role {self.role!r}; expected one of {NODE_ROLES}")
        _require(self.seeding in SEEDING_RULES, f"unknown seeding rule {self.seeding!r}; expected one of {SEEDING_RULES}")
        _require(self.seed_basis in SEED_BASES, f"unknown seed basis {self.seed_basis!r}; expected one of {SEED_BASES}")
        _require(0.0 <= self.seed_fraction <= 1.0, "seed_fraction must lie in [0, 1]")

    def member_ids(self) -> Tuple[str, ...]:
        """The concrete node ids this group expands to."""
        if self.role == "source" and self.count == 1:
            return (self.name,)
        return tuple(f"{self.name}{i}" for i in range(self.count))


@dataclass(frozen=True)
class TopologySpec:
    """Which structured overlay graph the swarm is wired over.

    ``kind`` names a registered :mod:`repro.topology` generator
    (``"scale_free"``, ``"clustered"``, ``"cdn_tiers"``, ``"random"``,
    ``"ring"``); ``params`` holds that generator's integer parameters
    (``attach``, ``clusters``, ``tiers``, ``fanout``, ``degree``),
    stored as sorted pairs so the spec stays hashable (read with
    :meth:`param`).  The graph itself is a pure function of ``(kind,
    node count, seed, params)`` — :meth:`generate` replays it
    bit-identically from the experiment seed via ``derive_seed``.
    """

    kind: str = "random"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.kind), "topology kind must be non-empty")
        from repro.topology import TopologyError, generator_entry

        try:
            entry = generator_entry(self.kind)
        except TopologyError as exc:
            raise SpecError(str(exc)) from None
        object.__setattr__(self, "params", _freeze_params(self.params))
        unknown = sorted(set(self.params_dict()) - set(entry.params))
        _require(
            not unknown,
            f"topology kind {self.kind!r} does not accept parameter(s) "
            f"{', '.join(unknown)} (accepts: "
            f"{', '.join(sorted(entry.params)) or 'none'})",
        )

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def generate(self, n: int, seed: int):
        """The concrete :class:`~repro.topology.GeneratedTopology`."""
        from repro.topology import TopologyError, generate

        try:
            return generate(self.kind, n, seed, **self.params_dict())
        except TopologyError as exc:
            raise SpecError(str(exc)) from None


@dataclass(frozen=True)
class SwarmSpec:
    """The population and wiring substrate of a swarm experiment."""

    target: int = 100
    distinct_multiplier: float = 1.2
    nodes: Tuple[NodeSpec, ...] = ()
    links: Tuple[LinkRuleSpec, ...] = ()
    reconfigure_every: int = 20
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        _require_int(self.target, "swarm target")
        _require_int(self.reconfigure_every, "reconfigure_every")
        _require(self.target > 0, "swarm target must be positive")
        _require(self.distinct_multiplier >= 1.0, "distinct_multiplier must be >= 1.0")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))

    @property
    def distinct_symbols(self) -> int:
        """Distinct symbols in the system (``int(multiplier * target)``)."""
        return int(self.target * self.distinct_multiplier)

    def group(self, name: str) -> NodeSpec:
        """The node group named ``name`` (:class:`SpecError` if absent)."""
        for ns in self.nodes:
            if ns.name == name:
                return ns
        raise SpecError(
            f"swarm has no node group {name!r}; groups: "
            f"{[ns.name for ns in self.nodes]}"
        )

    def link_for(self, sender_class: str, receiver_class: str) -> Optional[LinkSpec]:
        """First matching link rule's spec, or None (use path defaults)."""
        for rule in self.links:
            if rule.matches(sender_class, receiver_class):
                return rule.link
        return None


@dataclass(frozen=True)
class SummarySpec:
    """Which working-set summary peers exchange, and its parameters.

    ``kind`` names a registered :class:`~repro.reconcile.base.Summary`
    adapter (``"minwise"``, ``"bloom"``, ``"art"``, ``"cpi"``, ...);
    ``params`` holds that adapter's scalar build parameters, stored as
    sorted pairs so the spec stays hashable (read with :meth:`param`).
    A spec that validates always resolves to a buildable
    :class:`~repro.reconcile.SummaryPolicy` (:meth:`policy`).
    """

    kind: str = "bloom"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.kind), "summary kind must be non-empty")
        from repro.reconcile import UnknownSummaryError, summary_class

        try:
            summary_class(self.kind)
        except UnknownSummaryError as exc:
            raise SpecError(str(exc)) from None
        object.__setattr__(self, "params", _freeze_params(self.params))

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def policy(self):
        """The :class:`~repro.reconcile.SummaryPolicy` this spec names."""
        from repro.reconcile import SummaryPolicy

        return SummaryPolicy(kind=self.kind, params=self.params_dict())


@dataclass(frozen=True)
class ReconfigSpec:
    """How (and how often) the overlay adapts its peering.

    ``policy`` picks the adaptation arm: ``"informed"`` (summary-driven
    admission thresholds and utility rewiring — the paper's Section 4
    machinery), ``"random"`` (uninformed random rewiring, the control
    arm), or ``"static"`` (no rewiring at all).  ``summary`` names the
    registered :class:`~repro.reconcile.base.Summary` kind whose cards
    drive the informed estimates; ``None`` selects the default calling
    card (:func:`repro.overlay.default_scheme` —
    :data:`~repro.reconcile.DEFAULT_POLICY`'s min-wise card, the one
    joins plan over), under which a run is bit-identical to the
    pre-spec behaviour — the parity tests pin it.

    ``interval`` is the epoch period in simulated time units (0 = the
    swarm's ``reconfigure_every``); ``jitter`` defers each epoch's pass
    by a uniform draw in ``[0, jitter)``; ``scan_budget`` caps how many
    candidate cards a receiver scans per epoch (0 = all).
    ``min_usefulness`` and ``hysteresis`` are the informed policy's
    admission threshold and swap margin.
    """

    policy: str = "informed"
    summary: Optional["SummarySpec"] = None
    interval: float = 0.0
    jitter: float = 0.0
    scan_budget: int = 0
    min_usefulness: float = DEFAULT_MIN_USEFULNESS
    hysteresis: float = DEFAULT_HYSTERESIS

    def __post_init__(self) -> None:
        _require_finite(self, ("interval", "jitter", "min_usefulness", "hysteresis"))
        _require(
            self.policy in RECONFIG_POLICIES,
            f"unknown reconfig policy {self.policy!r}; expected one of {RECONFIG_POLICIES}",
        )
        _require_int(self.scan_budget, "scan_budget")
        _require(self.interval >= 0.0, "reconfig interval must be non-negative")
        _require(self.jitter >= 0.0, "reconfig jitter must be non-negative")
        _require(self.scan_budget >= 0, "scan_budget must be non-negative")
        _require(
            0.0 <= self.min_usefulness <= 1.0, "min_usefulness must lie in [0, 1]"
        )
        _require(self.hysteresis >= 0.0, "hysteresis must be non-negative")
        if self.policy != "informed":
            # Only the informed policy consults these; accepting them on
            # the baseline arms would silently ignore a user's selection.
            _require(
                self.summary is None,
                f"reconfig policy {self.policy!r} consults no summaries; "
                "'summary' applies to the informed policy only",
            )
            _require(
                self.min_usefulness == DEFAULT_MIN_USEFULNESS
                and self.hysteresis == DEFAULT_HYSTERESIS,
                f"reconfig policy {self.policy!r} has no admission threshold "
                "or swap margin; min_usefulness/hysteresis apply to the "
                "informed policy only",
            )


@dataclass(frozen=True)
class TransportSpec:
    """Sender-side transport selection: congestion control and queues.

    ``policy`` names a registered :class:`~repro.transport.policies.
    TransportPolicy` kind (``"open_loop"``, ``"aimd"``,
    ``"bbr_lite"``); ``params`` holds that policy's scalar constructor
    parameters, stored as sorted pairs so the spec stays hashable
    (read with :meth:`param`).  A spec that validates always builds —
    the policy is instantiated once during validation.

    ``bottleneck_rate`` > 0 routes every connection's packets through
    one shared :class:`~repro.transport.queue.BottleneckQueue` (fluid
    FIFO drop-tail, ``bottleneck_buffer`` packets deep) draining at
    that rate; 0 leaves links unqueued (congestion control still
    applies over the existing per-link loss/latency models).
    ``rto_min``/``rto_max`` clamp the adaptive retransmission timeout.

    The ``open_loop`` policy with no bottleneck reproduces the
    historical open-loop sender behaviour exactly; a spec with
    ``transport`` unset skips the transport layer entirely (the
    bit-identical parity baseline).
    """

    policy: str = "open_loop"
    params: Tuple[Tuple[str, Any], ...] = ()
    bottleneck_rate: float = 0.0
    bottleneck_buffer: int = 32
    rto_min: float = 2.0
    rto_max: float = 64.0

    def __post_init__(self) -> None:
        _require(bool(self.policy), "transport policy must be non-empty")
        _require_int(self.bottleneck_buffer, "bottleneck_buffer")
        _require(
            self.bottleneck_rate >= 0.0, "bottleneck_rate must be non-negative"
        )
        _require(
            self.bottleneck_buffer >= 1,
            "bottleneck_buffer must hold at least 1 packet",
        )
        _require(self.rto_min > 0.0, "rto_min must be positive")
        _require(self.rto_max >= self.rto_min, "rto_max must be >= rto_min")
        object.__setattr__(self, "params", _freeze_params(self.params))
        from repro.transport import TransportError, validate_policy

        try:
            validate_policy(self.policy, self.params_dict())
        except TransportError as exc:
            raise SpecError(str(exc)) from None

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class StrategySpec:
    """Sender strategy selection (the Figure 5-8 legend) and summary budget.

    ``summary`` (a :class:`SummarySpec`) selects any registered summary
    kind across the strategy, protocol, and session layers; unset, it
    is the paper's Bloom filter at ``bloom_bits_per_element`` — the
    same run, byte for byte, as ``SummarySpec("bloom",
    {"bits_per_element": bloom_bits_per_element})``.
    """

    name: str = "Recode/BF"
    bloom_bits_per_element: int = 8
    summary: Optional["SummarySpec"] = None

    def __post_init__(self) -> None:
        _require_int(self.bloom_bits_per_element, "bloom_bits_per_element")
        _require(self.bloom_bits_per_element > 0, "bloom_bits_per_element must be positive")


@dataclass(frozen=True)
class ChurnSpec:
    """Scheduled membership disturbance: join waves and departures."""

    join_waves: int = 0
    wave_interval: float = 0.0
    depart_node: str = ""
    depart_at: float = 0.0

    def __post_init__(self) -> None:
        _require_int(self.join_waves, "join_waves")
        _require(self.join_waves >= 0, "join_waves must be non-negative")
        _require(self.wave_interval >= 0.0, "wave_interval must be non-negative")


@dataclass(frozen=True)
class MeasurementSpec:
    """What to measure and how long to run."""

    max_ticks: int = 10_000
    resolution: float = 1.0
    record_series: bool = True
    max_packets: int = 0  # 0 = let the transfer loop derive its default
    #: Inert: validated and echoed, read by nothing.  It used to pick
    #: between two epoch kernels; there is one now
    #: (``SummaryScheme.usefulness_many``).  The field outlives them by
    #: one PR because the frozen ``bench/workloads.py`` sets it and
    #: ``benchmarks/`` overrides it (ROADMAP items 3c / 4b remove it).
    engine: str = "reference"
    #: Simulation fidelity: "packet" runs the per-symbol event engines
    #: (every existing scenario), "flow" the rate-equation population
    #: engine of :mod:`repro.flow` — bulk transfer as closed-form
    #: goodput between real summary handshakes, for million-peer
    #: populations.  Only scenarios registered with flow support
    #: (``population_flash_crowd``) accept it.  Sweepable via
    #: ``with_override("measurement.fidelity", ...)``.
    fidelity: str = "packet"

    def __post_init__(self) -> None:
        _require_int(self.max_ticks, "max_ticks")
        _require_int(self.max_packets, "max_packets")
        _require(self.max_ticks > 0, "max_ticks must be positive")
        _require(self.resolution > 0, "resolution must be positive")
        _require(self.max_packets >= 0, "max_packets must be non-negative")
        _require(
            self.engine in ENGINES,
            f"engine must be one of {sorted(ENGINES)}, got {self.engine!r}",
        )
        _require(
            self.fidelity in FIDELITIES,
            f"fidelity must be one of {sorted(FIDELITIES)}, got {self.fidelity!r}",
        )


@dataclass(frozen=True)
class PopulationSpec:
    """A population-scale demand model for the flow-fidelity scenarios.

    Describes *who wants what, when*: ``size`` peers spread over
    ``objects`` distinct contents by a Zipf popularity law
    (``zipf_skew``), arriving in ``waves`` join waves shaped by
    ``wave_profile`` every ``wave_interval`` time units, with a
    ``seeded_fraction`` of each object's audience pre-seeded as two
    complementary mirror groups (the paper's Figure 1 environment at
    population scale).  ``rate``/``loss_rate`` describe the per-
    connection goodput; ``rate_tiers``/``rate_spread`` split each
    arrival cohort into bandwidth classes with multipliers spanning
    ``[1-spread, 1+spread]``.  ``sample_cap`` bounds the sampled-ID
    sketch each flow-level cohort representative carries (the set the
    real reconciliation summaries are built over at handshake time).
    """

    size: int = 10_000
    objects: int = 1
    zipf_skew: float = 0.8
    waves: int = 4
    wave_profile: str = "flash"
    wave_interval: float = 10.0
    seeded_fraction: float = 0.1
    rate: float = 2.0
    loss_rate: float = 0.01
    rate_tiers: int = 2
    rate_spread: float = 0.25
    sample_cap: int = 256
    max_connections: int = 3

    def __post_init__(self) -> None:
        for name in ("size", "objects", "waves", "rate_tiers", "sample_cap",
                     "max_connections"):
            _require_int(getattr(self, name), name)
        _require_finite(self, ("zipf_skew", "wave_interval", "seeded_fraction",
                               "rate", "loss_rate", "rate_spread"))
        _require(self.size >= 1, "population size must be at least 1")
        _require(self.objects >= 1, "objects must be at least 1")
        _require(self.zipf_skew >= 0.0, "zipf_skew must be non-negative")
        _require(self.waves >= 1, "need at least one arrival wave")
        _require(
            self.wave_profile in WAVE_PROFILES,
            f"unknown wave profile {self.wave_profile!r}; expected one of "
            f"{WAVE_PROFILES}",
        )
        _require(self.wave_interval > 0.0, "wave_interval must be positive")
        _require(
            0.0 <= self.seeded_fraction < 1.0,
            "seeded_fraction must lie in [0, 1)",
        )
        _require(self.rate > 0.0, "population rate must be positive")
        _require(0.0 <= self.loss_rate < 1.0, "loss_rate must lie in [0, 1)")
        _require(self.rate_tiers >= 1, "need at least one rate tier")
        _require(
            0.0 <= self.rate_spread < 1.0, "rate_spread must lie in [0, 1)"
        )
        _require(self.sample_cap >= 16, "sample_cap must be at least 16")
        _require(self.max_connections >= 1, "max_connections must be at least 1")


@dataclass(frozen=True)
class CatalogSpec:
    """A multi-object content catalog with skewed demand.

    ``objects`` distinct contents share the swarm's symbol target:
    object sizes follow ``1/rank^size_skew`` (``0`` = equal sizes,
    apportioned by largest remainder via :func:`repro.flow.demand.
    apportion`), and per-peer demand follows ``1/rank^zipf_skew`` —
    the same Zipf machinery :class:`PopulationSpec` uses at flow
    fidelity.  ``priority_tiers`` > 0 splits the demand ranking into
    that many delivery-priority bands (tier 0 = most popular), which
    catalog-aware reconciliation weights when scoring candidates.

    A spec with ``catalog`` unset (or ``objects=1``,
    ``priority_tiers=0``) describes the historical single-object run.
    """

    objects: int = 1
    zipf_skew: float = 0.8
    size_skew: float = 0.0
    priority_tiers: int = 0

    def __post_init__(self) -> None:
        _require_int(self.objects, "catalog objects")
        _require_int(self.priority_tiers, "priority_tiers")
        _require(self.objects >= 1, "catalog needs at least one object")
        _require(self.zipf_skew >= 0.0, "zipf_skew must be non-negative")
        _require(self.size_skew >= 0.0, "size_skew must be non-negative")
        _require(
            0 <= self.priority_tiers <= self.objects,
            "priority_tiers must lie in [0, objects]",
        )


def _freeze_params(params: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalise scenario extras to a sorted tuple of (key, value) pairs."""
    if isinstance(params, Mapping):
        items = list(params.items())
    else:
        try:
            items = [(key, value) for key, value in params]
        except (TypeError, ValueError) as exc:
            raise SpecError(
                "params must be a mapping or a sequence of (key, value) "
                f"pairs: {exc}"
            ) from exc
    seen = set()
    for key, value in items:
        _require(isinstance(key, str), "param keys must be strings")
        _require(key not in seen, f"duplicate param key {key!r}")
        seen.add(key)
        _require(
            value is None or isinstance(value, (bool, int, float, str)),
            f"param {key!r} must be a JSON scalar, got {type(value).__name__}",
        )
    return tuple(sorted(items, key=lambda item: item[0]))


@dataclass(frozen=True)
class ExperimentSpec:
    """The complete declarative description of one experiment.

    ``scenario`` names the registered interpreter
    (:mod:`repro.api.registry`); ``seed`` is the master seed every RNG
    in the run descends from; ``params`` holds scenario-specific scalar
    extras that have no component home (stored as sorted pairs so the
    spec stays hashable; read with :meth:`param`).
    """

    scenario: str
    seed: int = 0
    swarm: Optional[SwarmSpec] = None
    strategy: StrategySpec = StrategySpec()
    churn: Optional[ChurnSpec] = None
    reconfig: Optional[ReconfigSpec] = None
    transport: Optional[TransportSpec] = None
    measurement: MeasurementSpec = MeasurementSpec()
    population: Optional[PopulationSpec] = None
    catalog: Optional[CatalogSpec] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.scenario), "scenario name must be non-empty")
        _require_int(self.seed, "spec seed")
        object.__setattr__(self, "params", _freeze_params(self.params))
        pop = self.population
        if pop is not None:
            # Every flow window's traffic is bounded by the whole run's:
            # each peer on every connection at the top tier's rate.
            try:
                run_traffic = (pop.rate * (1.0 + pop.rate_spread) * pop.size
                               * pop.max_connections * self.measurement.max_ticks)
            except OverflowError:
                run_traffic = math.inf
            _require(
                math.isfinite(run_traffic),
                f"population rate {pop.rate!r} overflows over "
                f"{self.measurement.max_ticks} ticks of {pop.size} peers",
            )

    # -- params accessors ---------------------------------------------------

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def with_params(self, **updates: Any) -> "ExperimentSpec":
        """A copy with ``params`` entries added/replaced."""
        merged = self.params_dict()
        merged.update(updates)
        return dataclasses.replace(self, params=_freeze_params(merged))

    def with_override(self, path: str, value: Any) -> "ExperimentSpec":
        """A copy with the dotted-path field ``path`` replaced by ``value``.

        The campaign grid's application mechanism: ``path`` names any
        scalar spec field by its dotted location (``"strategy.name"``,
        ``"swarm.target"``, ``"params.correlation"``,
        ``"strategy.summary.kind"``, ``"churn.depart_at"``...).
        ``params`` segments address the scalar-extras mappings; a
        ``None`` component on the way (no churn, no summary) is
        instantiated with its defaults first.  Unknown paths, non-scalar
        targets (node/link arrays), and values the component rejects all
        fold into :class:`SpecError`.
        """
        parts = path.split(".")
        _require(all(parts) and parts[0], f"override path {path!r} is malformed")
        return _override(self, parts, value, path)

    # -- the component registry ---------------------------------------------

    def component(self, name: str) -> Any:
        """The registered component's current value (None when unset)."""
        comp = component_def(name)
        obj: Any = self
        for segment in comp.path:
            if obj is None:
                return None
            obj = getattr(obj, segment)
        return obj

    def with_component_spec(self, name: str, value: Any) -> "ExperimentSpec":
        """A copy with the registered component ``name`` set to ``value``.

        ``value`` must be an instance of the component's spec class (or
        ``None`` to unset it); ``None`` intermediates on the path (no
        swarm yet, say) are instantiated with their defaults.
        """
        comp = component_def(name)
        _require(
            value is None or isinstance(value, comp.cls),
            f"component {name!r} takes a {comp.cls.__name__}, "
            f"got {type(value).__name__}",
        )
        return _graft(self, comp.path, value)

    def with_component(self, name: str, kind: Optional[str] = None, **fields: Any) -> "ExperimentSpec":
        """A copy selecting component ``name``, built from keyword fields.

        The one mechanism behind every ``with_*`` helper: ``kind`` maps
        to the component's selector field (summary ``kind``, reconfig
        ``policy``, ...), the rest pass through to the component spec's
        constructor, and the result is grafted at the component's
        registered path.  Unknown components and fields the spec class
        rejects fold into :class:`SpecError`.
        """
        comp = component_def(name)
        if kind is not None:
            _require(
                bool(comp.kind_field),
                f"component {name!r} has no kind selector",
            )
            _require(
                comp.kind_field not in fields,
                f"component {name!r}: {comp.kind_field!r} given both "
                f"positionally and by keyword",
            )
            fields[comp.kind_field] = kind
        return self.with_component_spec(name, _construct(comp.cls, fields))

    @property
    def summary(self) -> Optional[SummarySpec]:
        """The experiment's summary selection (``strategy.summary``)."""
        return self.strategy.summary

    def with_summary(self, kind: str, **params: Any) -> "ExperimentSpec":
        """A copy selecting a summary kind for the whole experiment."""
        return self.with_component("summary", kind, params=params)

    def with_reconfig(self, policy: str = "informed", **fields: Any) -> "ExperimentSpec":
        """A copy selecting an overlay reconfiguration policy.

        ``summary_kind``/``summary_params`` select the summary the
        informed estimates flow through; every other keyword maps to a
        :class:`ReconfigSpec` field.
        """
        kind = fields.pop("summary_kind", None)
        params = fields.pop("summary_params", None)
        summary = SummarySpec(kind=kind, params=params or ()) if kind else None
        return self.with_component("reconfig", policy, summary=summary, **fields)

    def with_transport(self, policy: str = "open_loop", **fields: Any) -> "ExperimentSpec":
        """A copy selecting a sender transport policy.

        ``params`` (a mapping) carries the policy's constructor
        parameters; every other keyword maps to a
        :class:`TransportSpec` field.
        """
        params = fields.pop("params", None) or ()
        return self.with_component("transport", policy, params=params, **fields)

    def with_topology(self, kind: str = "random", **params: Any) -> "ExperimentSpec":
        """A copy wiring the swarm over a structured topology."""
        return self.with_component("topology", kind, params=params)

    def with_catalog(self, objects: int = 1, **fields: Any) -> "ExperimentSpec":
        """A copy disseminating a multi-object catalog."""
        return self.with_component("catalog", objects=objects, **fields)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON-types dict; inverse of :meth:`from_dict`."""
        return _spec_to_dict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _require(isinstance(data, Mapping), "spec must be a JSON object")
        _require("scenario" in data, "spec is missing the 'scenario' key")
        return _spec_from_dict(cls, data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


#: Components :meth:`ExperimentSpec.with_override` may instantiate when
#: a path traverses a field currently set to ``None``.
_DEFAULTABLE_COMPONENTS = {
    "swarm": SwarmSpec,
    "churn": ChurnSpec,
    "summary": SummarySpec,
    "reconfig": ReconfigSpec,
    "transport": TransportSpec,
    "population": PopulationSpec,
    "topology": TopologySpec,
    "catalog": CatalogSpec,
}


@dataclass(frozen=True)
class ComponentDef:
    """One registered, selectable component of an :class:`ExperimentSpec`.

    ``path`` is the field path from the spec root to where the
    component lives; ``kind_field`` names the component's selector
    field (``kind``/``policy``), empty when it has none.
    """

    name: str
    cls: type
    path: Tuple[str, ...]
    kind_field: str = ""


#: The declarative component registry behind
#: :meth:`ExperimentSpec.with_component`: every selectable component,
#: its spec class, and where it grafts.  ``with_summary`` /
#: ``with_reconfig`` / ``with_transport`` / ``with_topology`` /
#: ``with_catalog`` and the CLI's ``--summary``-family axes all
#: delegate here; a new component registers instead of adding another
#: hand-rolled copy of that plumbing.
COMPONENTS: Dict[str, ComponentDef] = {
    "summary": ComponentDef("summary", SummarySpec, ("strategy", "summary"), "kind"),
    "reconfig": ComponentDef("reconfig", ReconfigSpec, ("reconfig",), "policy"),
    "transport": ComponentDef("transport", TransportSpec, ("transport",), "policy"),
    "topology": ComponentDef("topology", TopologySpec, ("swarm", "topology"), "kind"),
    "catalog": ComponentDef("catalog", CatalogSpec, ("catalog",), ""),
}


def component_def(name: str) -> ComponentDef:
    """The registry entry for ``name`` (:class:`SpecError` if absent)."""
    try:
        return COMPONENTS[name]
    except KeyError:
        raise SpecError(
            f"unknown component {name!r} (registered: {sorted(COMPONENTS)})"
        ) from None


def _graft(obj: Any, path: Tuple[str, ...], value: Any):
    """Replace the field at ``path``, defaulting ``None`` intermediates."""
    head, rest = path[0], path[1:]
    if not rest:
        return dataclasses.replace(obj, **{head: value})
    child = getattr(obj, head)
    if child is None:
        child = _DEFAULTABLE_COMPONENTS[head]()
    return dataclasses.replace(obj, **{head: _graft(child, rest, value)})


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _override(obj: Any, parts: list, value: Any, full_path: str):
    """Recursive core of :meth:`ExperimentSpec.with_override`."""
    head, rest = parts[0], parts[1:]
    # `params.KEY` addresses the scalar-extras mapping of the spec (or
    # of a Summary/Transport/TopologySpec) rather than a dataclass field.
    if head == "params" and isinstance(obj, _PARAMS_CLASSES):
        _require(
            len(rest) == 1,
            f"override {full_path!r}: 'params' takes exactly one key segment",
        )
        _require(_is_scalar(value), f"override {full_path!r}: value must be a JSON scalar")
        if isinstance(obj, ExperimentSpec):
            return obj.with_params(**{rest[0]: value})
        merged = obj.params_dict()
        merged[rest[0]] = value
        try:
            return dataclasses.replace(obj, params=_freeze_params(merged))
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"override {full_path!r}: {exc}") from exc
    known = {f.name for f in fields(obj)}
    _require(
        head in known,
        f"override {full_path!r}: {type(obj).__name__} has no field {head!r} "
        f"(fields: {sorted(known)})",
    )
    if not rest:
        _require(_is_scalar(value), f"override {full_path!r}: value must be a JSON scalar")
        current = getattr(obj, head)
        _require(
            not isinstance(current, tuple),
            f"override {full_path!r}: field {head!r} is an array; only scalar "
            f"fields can be overridden",
        )
        try:
            return dataclasses.replace(obj, **{head: value})
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"override {full_path!r}: {exc}") from exc
    child = getattr(obj, head)
    if child is None:
        default = _DEFAULTABLE_COMPONENTS.get(head)
        _require(
            default is not None,
            f"override {full_path!r}: {type(obj).__name__}.{head} is unset and "
            f"has no default to extend (extendable when unset: "
            f"{sorted(_DEFAULTABLE_COMPONENTS)})",
        )
        child = default()
    _require(
        dataclasses.is_dataclass(child),
        f"override {full_path!r}: field {head!r} is not a component spec "
        f"(nested specs of {type(obj).__name__}: "
        f"{sorted(_NESTED_SPEC_FIELDS.get(type(obj), {})) or ['none']})",
    )
    return dataclasses.replace(obj, **{head: _override(child, rest, value, full_path)})


def _check_keys(cls: type, data: Any) -> None:
    """Require ``data`` to be a mapping using only ``cls``'s field names."""
    name = "spec" if cls is ExperimentSpec else cls.__name__
    _require(isinstance(data, Mapping), f"{name} must be a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    _require(
        not unknown,
        f"unknown {name} keys {sorted(unknown)}; expected a subset of {sorted(known)}",
    )


def _construct(cls: type, kwargs: Mapping[str, Any]):
    """Instantiate a spec dataclass, folding bad types into SpecError."""
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {cls.__name__}: {exc}") from exc


#: Spec classes whose ``params`` field is a frozen scalar mapping (the
#: serialisation and override layers treat it as a dict, not a field).
_PARAMS_CLASSES = (ExperimentSpec, SummarySpec, TransportSpec, TopologySpec)

#: Nested single-spec fields per dataclass: ``field -> (class,
#: defaulted)``.  ``defaulted`` fields fall back to the class's
#: defaults when the JSON value is ``null``/absent; the rest stay
#: ``None``.  This one table drives :func:`_spec_from_dict`,
#: :func:`_spec_to_dict`, and the override error messages — a new
#: nested spec registers here instead of growing each walker a branch.
_NESTED_SPEC_FIELDS: Dict[type, Dict[str, Tuple[type, bool]]] = {
    ExperimentSpec: {
        "swarm": (SwarmSpec, False),
        "strategy": (StrategySpec, True),
        "churn": (ChurnSpec, False),
        "reconfig": (ReconfigSpec, False),
        "transport": (TransportSpec, False),
        "measurement": (MeasurementSpec, True),
        "population": (PopulationSpec, False),
        "catalog": (CatalogSpec, False),
    },
    StrategySpec: {"summary": (SummarySpec, False)},
    ReconfigSpec: {"summary": (SummarySpec, False)},
    SwarmSpec: {"topology": (TopologySpec, False)},
    LinkRuleSpec: {"link": (LinkSpec, True)},
}

#: Nested spec-array fields per dataclass: ``field -> element class``.
_LIST_SPEC_FIELDS: Dict[type, Dict[str, type]] = {
    SwarmSpec: {"nodes": NodeSpec, "links": LinkRuleSpec},
}


def _spec_from_dict(cls: type, data: Mapping[str, Any]):
    """Build any spec dataclass from a mapping, recursing per the tables."""
    _check_keys(cls, data)
    kwargs = dict(data)
    for key, (child_cls, defaulted) in _NESTED_SPEC_FIELDS.get(cls, {}).items():
        child = kwargs.get(key)
        if child is not None:
            kwargs[key] = _spec_from_dict(child_cls, child)
        elif key in kwargs:
            kwargs[key] = child_cls() if defaulted else None
    for key, child_cls in _LIST_SPEC_FIELDS.get(cls, {}).items():
        value = kwargs.get(key, ())
        _require(
            isinstance(value, (list, tuple)),
            f"{cls.__name__} {key!r} must be an array of objects",
        )
        kwargs[key] = tuple(_spec_from_dict(child_cls, item) for item in value)
    if cls in _PARAMS_CLASSES and "params" in kwargs:
        params = kwargs["params"]
        _require(
            params is None or isinstance(params, (Mapping, list, tuple)),
            f"{cls.__name__} params must be an object of scalars",
        )
        kwargs["params"] = _freeze_params(params or ())
    return _construct(cls, kwargs)


def _spec_to_dict(obj: Any) -> Dict[str, Any]:
    """The inverse walker: any spec dataclass to plain JSON types."""
    out: Dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name == "params" and isinstance(obj, _PARAMS_CLASSES):
            out[f.name] = dict(value)
        elif dataclasses.is_dataclass(value):
            out[f.name] = _spec_to_dict(value)
        elif isinstance(value, tuple):
            out[f.name] = [_spec_to_dict(item) for item in value]
        else:
            out[f.name] = value
    return out


__all__ = [
    "SpecError",
    "ComponentDef",
    "COMPONENTS",
    "component_def",
    "LINK_KINDS",
    "SEEDING_RULES",
    "SEED_BASES",
    "NODE_ROLES",
    "RECONFIG_POLICIES",
    "ENGINES",
    "FIDELITIES",
    "WAVE_PROFILES",
    "LinkSpec",
    "LinkRuleSpec",
    "NodeSpec",
    "TopologySpec",
    "SwarmSpec",
    "CatalogSpec",
    "SummarySpec",
    "StrategySpec",
    "ChurnSpec",
    "ReconfigSpec",
    "TransportSpec",
    "MeasurementSpec",
    "PopulationSpec",
    "ExperimentSpec",
]
