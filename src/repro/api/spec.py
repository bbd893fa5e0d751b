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

Every field declares its contract once: the type is its annotation,
the range and allowed values its :func:`bounded` metadata.
:func:`check_fields` enforces the contract on every construction, and
:func:`check_value` is the same check for scenario params and executor
knobs; a refusal reads ``<Class>.<field> must be ..., got <value>``.

Construction helpers for the scenario catalog live in
:mod:`repro.api.builders`; :func:`repro.api.run` executes a spec.
"""

import dataclasses
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple
from typing import Union, get_args, get_origin, get_type_hints

from repro.delivery.strategies import STRATEGY_NAMES
from repro.overlay.reconfiguration import DEFAULT_HYSTERESIS, DEFAULT_MIN_USEFULNESS


class SpecError(ValueError):
    """A spec failed validation or deserialisation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def read_json(what: str, text: Optional[str] = None, path: Optional[str] = None) -> Any:
    """Parse untrusted JSON ``text``, or the UTF-8 file at ``path``.

    Every way such input can fail — an unreadable file, bytes that are
    not UTF-8, text that is not JSON, nesting deeper than the parser's
    recursion limit — is a :class:`SpecError` naming ``what``.  A
    syntax error is chained as the cause; callers that accept a bare
    word (CLI params) read that to tell it from the other failures.
    """
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise SpecError(f"cannot read {what} file {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecError(f"{what} file {path!r} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SpecError(f"{what} nests deeper than the JSON parser allows") from None


@dataclass(frozen=True)
class Bound:
    """What one spec value may hold besides its type.

    ``ge``/``gt``/``le``/``lt`` bound a number, ``choices`` lists the
    allowed values and ``nonempty`` refuses ``""`` and ``()``.  A spec
    field declares its bound with :func:`bounded` and takes its type
    from its annotation; a scenario param declares ``type`` and
    ``default`` (what a spec that leaves the key out reads) as well.
    """

    type: Any = None
    default: Any = None
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    choices: Tuple[Any, ...] = ()
    nonempty: bool = False

    def contains(self, value: Any) -> bool:
        return not (
            (self.ge is not None and value < self.ge)
            or (self.gt is not None and value <= self.gt)
            or (self.le is not None and value > self.le)
            or (self.lt is not None and value >= self.lt)
        )

    def range_text(self) -> str:
        """The range in words: ``non-negative``, ``>= 16``, ``in [0, 1)``."""
        lower = (">=", self.ge) if self.ge is not None else (">", self.gt)
        upper = ("<=", self.le) if self.le is not None else ("<", self.lt)
        if lower[1] is not None and upper[1] is not None:
            left = "[" if lower[0] == ">=" else "("
            right = "]" if upper[0] == "<=" else ")"
            return f"in {left}{lower[1]:g}, {upper[1]:g}{right}"
        if lower in ((">=", 0), (">", 0)):
            return "non-negative" if lower[0] == ">=" else "positive"
        op, limit = lower if lower[1] is not None else upper
        return f"{op} {limit:g}"


_NO_BOUND = Bound()

#: How a refusal names each scalar type.
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


def bounded(default: Any = MISSING, **bound: Any) -> Any:
    """A dataclass field whose :class:`Bound` is ``bound``."""
    return field(default=default, metadata={"bound": Bound(**bound)})


def _type_ok(value: Any, kind: Any) -> bool:
    """Strict types: a JSON 7.5 (or true) never passes as the integer 7,
    a float field takes an int but no bool, str and bool are exact."""
    if kind is int or kind is float:
        numeric = (int, float) if kind is float else int
        return isinstance(value, numeric) and not isinstance(value, bool)
    if kind in (str, bool):
        return type(value) is kind
    return isinstance(value, kind)


def _finite(value: Any) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to be any float
        return False


def check_value(where: str, value: Any, kind: Any, bound: Bound = _NO_BOUND) -> None:
    """Refuse ``value`` unless it is a ``kind`` within ``bound``.

    The one check behind every spec field, scenario param and executor
    knob.  Infinity and NaN have no JSON spelling and poison the
    arithmetic a spec feeds, so a number must be finite — an int too
    large for any float is refused too, or the first float it meets
    raises ``OverflowError``.
    """

    def refuse(what: str) -> None:
        raise SpecError(f"{where} must be {what}, got {value!r}")

    if not _type_ok(value, kind):
        refuse(_TYPE_NAMES.get(kind) or f"a {kind.__name__}")
    if kind in (int, float) and not _finite(value):
        refuse("finite" if isinstance(value, float)
               else "finite; an int this large overflows a float")
    if bound.choices and value not in bound.choices:
        refuse(f"one of {bound.choices}")
    if bound.nonempty and not value:
        refuse("non-empty")
    if not bound.contains(value):
        refuse(bound.range_text())


class FieldContract(NamedTuple):
    """One spec field's declared contract."""

    name: str
    type: Any  # the annotation, ``Optional`` unwrapped
    optional: bool
    bound: Bound


_CONTRACTS: Dict[type, Tuple[FieldContract, ...]] = {}


def contract(cls: type) -> Tuple[FieldContract, ...]:
    """The declared contract of every field of spec class ``cls``."""
    found = _CONTRACTS.get(cls)
    if found is None:
        hints = get_type_hints(cls)
        rows = []
        for f in fields(cls):
            kind, optional = hints[f.name], False
            if get_origin(kind) is Union:
                (kind,) = [arg for arg in get_args(kind) if arg is not type(None)]
                optional = True
            bound = f.metadata.get("bound", _NO_BOUND)
            rows.append(FieldContract(f.name, kind, optional, bound))
        found = _CONTRACTS[cls] = tuple(rows)
    return found


def bound_of(cls: type, name: str) -> Bound:
    """The bound spec class ``cls`` declares for field ``name``."""
    return next(row.bound for row in contract(cls) if row.name == name)


def _check_items(where: str, items: Any, item: Any, bound: Bound) -> Tuple[Any, ...]:
    """An array field as a tuple, each item checked (``Any`` = a JSON scalar)."""
    if get_origin(item) is tuple:
        return _freeze_params(items)
    try:
        items = tuple(items)
    except TypeError:
        raise SpecError(f"{where} must be an array, got {items!r}") from None
    for value in items:
        if item is Any:
            _require(
                _is_scalar(value), f"{where} must hold finite JSON scalars, got {value!r}"
            )
        else:
            check_value(where, value, item)
    _require(items or not bound.nonempty, f"{where} must be non-empty, got ()")
    return items


def check_fields(spec: Any) -> None:
    """Hold every field of a spec dataclass to its :func:`contract`.

    Values are checked, never coerced — an int stays an int, so the
    JSON a spec writes is the JSON it was given.  Only containers are
    normalised: arrays to tuples and ``params`` to sorted pairs, so a
    spec stays hashable.
    """
    owner = type(spec).__name__
    for name, kind, optional, bound in contract(type(spec)):
        value = getattr(spec, name)
        if value is None and optional:
            continue
        where = f"{owner}.{name}"
        if get_origin(kind) is tuple:
            items = _check_items(where, value, get_args(kind)[0], bound)
            object.__setattr__(spec, name, items)
        else:
            check_value(where, value, kind, bound)


class CheckedSpec:
    """Base of the spec dataclasses: construction runs :func:`check_fields`;
    a subclass adds only its genuinely cross-field checks."""

    def __post_init__(self) -> None:
        check_fields(self)


class ParamsSpec(CheckedSpec):
    """A spec with a ``params`` field: scalar extras as sorted pairs."""

    params: Tuple[Tuple[str, Any], ...]

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class LinkSpec(CheckedSpec):
    """One link model class, by kind and parameters.

    ``shared_key`` couples links: every link built from rules whose
    specs carry the same non-empty key shares one loss process (the
    correlated-loss trunk of
    :func:`repro.api.builders.correlated_regional_loss`).  Bounds mirror
    the link-model constructors exactly, so a spec that validates can
    always be built.
    """

    kind: str = bounded("constant", choices=("constant", "latency_jitter", "gilbert_elliott"))
    rate: float = bounded(1.0, ge=0)
    loss_rate: float = bounded(0.0, ge=0, lt=1)
    latency: float = bounded(0.0, ge=0)
    jitter: float = bounded(0.0, ge=0)
    p_good_bad: float = 0.05
    p_bad_good: float = 0.3
    loss_good: float = bounded(0.0, ge=0, le=1)
    loss_bad: float = bounded(0.5, ge=0, le=1)
    shared_key: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "gilbert_elliott":
            for name in ("p_good_bad", "p_bad_good"):
                check_value(f"LinkSpec.{name} of a gilbert_elliott link",
                            getattr(self, name), float, Bound(gt=0, le=1))


@dataclass(frozen=True)
class LinkRuleSpec(CheckedSpec):
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
class NodeSpec(CheckedSpec):
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
    count: int = bounded(1, ge=0)
    role: str = bounded("peer", choices=("peer", "source"))
    node_class: str = ""
    seeding: str = bounded("empty", choices=("empty", "fixed", "uniform"))
    seed_fraction: float = bounded(0.0, ge=0, le=1)
    seed_basis: str = bounded("target", choices=("target", "distinct"))
    max_connections: int = bounded(3, ge=0)

    def member_ids(self) -> Tuple[str, ...]:
        """The concrete node ids this group expands to."""
        if self.role == "source" and self.count == 1:
            return (self.name,)
        return tuple(f"{self.name}{i}" for i in range(self.count))


@dataclass(frozen=True)
class TopologySpec(ParamsSpec):
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

    kind: str = bounded("random", nonempty=True)
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        from repro.topology import TopologyError, generator_entry

        try:
            entry = generator_entry(self.kind)
        except TopologyError as exc:
            raise SpecError(str(exc)) from None
        unknown = sorted(set(self.params_dict()) - set(entry.params))
        _require(
            not unknown,
            f"topology kind {self.kind!r} does not accept parameter(s) "
            f"{', '.join(unknown)} (accepts: "
            f"{', '.join(sorted(entry.params)) or 'none'})",
        )

    def generate(self, n: int, seed: int):
        """The concrete :class:`~repro.topology.GeneratedTopology`."""
        from repro.topology import TopologyError, generate

        try:
            return generate(self.kind, n, seed, **self.params_dict())
        except TopologyError as exc:
            raise SpecError(str(exc)) from None


@dataclass(frozen=True)
class SwarmSpec(CheckedSpec):
    """The population and wiring substrate of a swarm experiment."""

    target: int = bounded(100, gt=0)
    distinct_multiplier: float = bounded(1.2, ge=1)
    nodes: Tuple[NodeSpec, ...] = ()
    links: Tuple[LinkRuleSpec, ...] = ()
    reconfigure_every: int = bounded(20, ge=0)
    topology: Optional[TopologySpec] = None

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
class SummarySpec(ParamsSpec):
    """Which working-set summary peers exchange, and its parameters.

    ``kind`` names a registered :class:`~repro.reconcile.base.Summary`
    adapter (``"minwise"``, ``"bloom"``, ``"art"``, ``"cpi"``, ...);
    ``params`` holds that adapter's scalar build parameters, stored as
    sorted pairs so the spec stays hashable (read with :meth:`param`).
    A spec that validates always resolves to a buildable
    :class:`~repro.reconcile.SummaryPolicy` (:meth:`policy`).
    """

    kind: str = bounded("bloom", nonempty=True)
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        from repro.reconcile import UnknownSummaryError, summary_class

        try:
            summary_class(self.kind)
        except UnknownSummaryError as exc:
            raise SpecError(str(exc)) from None

    def policy(self):
        """The :class:`~repro.reconcile.SummaryPolicy` this spec names."""
        from repro.reconcile import SummaryPolicy

        return SummaryPolicy(kind=self.kind, params=self.params_dict())


@dataclass(frozen=True)
class ReconfigSpec(CheckedSpec):
    """How (and how often) the overlay adapts its peering.

    ``policy`` picks the adaptation arm: ``"informed"`` (summary-driven
    admission thresholds and utility rewiring — the paper's Section 4
    machinery), ``"random"`` (uninformed random rewiring, the control
    arm), or ``"static"`` (no rewiring at all).  ``summary`` names the
    registered :class:`~repro.reconcile.base.Summary` kind whose cards
    drive the informed estimates; ``None`` selects the default calling
    card (:func:`repro.overlay.default_scheme` —
    :data:`~repro.reconcile.CALLING_CARD`, the one joins plan over),
    under which a run is bit-identical to the pre-spec behaviour — the
    parity tests pin it.

    ``interval`` is the epoch period in simulated time units (0 = the
    swarm's ``reconfigure_every``); ``jitter`` defers each epoch's pass
    by a uniform draw in ``[0, jitter)``; ``scan_budget`` caps how many
    candidate cards a receiver scans per epoch (0 = all).
    ``min_usefulness`` and ``hysteresis`` are the informed policy's
    admission threshold and swap margin.
    """

    policy: str = bounded("informed", choices=("informed", "random", "static"))
    summary: Optional["SummarySpec"] = None
    interval: float = bounded(0.0, ge=0)
    jitter: float = bounded(0.0, ge=0)
    scan_budget: int = bounded(0, ge=0)
    min_usefulness: float = bounded(DEFAULT_MIN_USEFULNESS, ge=0, le=1)
    hysteresis: float = bounded(DEFAULT_HYSTERESIS, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
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
class TransportSpec(ParamsSpec):
    """Sender-side transport selection: congestion control and queues.

    ``policy`` names a registered :class:`~repro.transport.policies.
    TransportPolicy` kind (``"open_loop"``, ``"aimd"``); ``params``
    holds that policy's scalar constructor parameters, stored as sorted
    pairs so the spec stays hashable (read with :meth:`param`).  A spec
    that validates always builds — the policy is instantiated once
    during validation.

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

    policy: str = bounded("open_loop", nonempty=True)
    params: Tuple[Tuple[str, Any], ...] = ()
    bottleneck_rate: float = bounded(0.0, ge=0)
    bottleneck_buffer: int = bounded(32, ge=1)
    rto_min: float = bounded(2.0, gt=0)
    rto_max: float = 64.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_value("TransportSpec.rto_max", self.rto_max, float, Bound(ge=self.rto_min))
        from repro.transport import TransportError, validate_policy

        try:
            validate_policy(self.policy, self.params_dict())
        except TransportError as exc:
            raise SpecError(str(exc)) from None


@dataclass(frozen=True)
class StrategySpec(CheckedSpec):
    """Sender strategy selection (the Figure 5-8 legend) and summary budget.

    ``summary`` (a :class:`SummarySpec`) selects any registered summary
    kind across the strategy, protocol, and session layers; unset, it
    is the paper's Bloom filter at ``bloom_bits_per_element`` — the
    same run, byte for byte, as ``SummarySpec("bloom",
    {"bits_per_element": bloom_bits_per_element})``.
    """

    name: str = bounded("Recode/BF", choices=STRATEGY_NAMES)
    bloom_bits_per_element: int = bounded(8, gt=0)
    summary: Optional["SummarySpec"] = None


@dataclass(frozen=True)
class ChurnSpec(CheckedSpec):
    """Scheduled membership disturbance: join waves and departures."""

    join_waves: int = bounded(0, ge=0)
    wave_interval: float = bounded(0.0, ge=0)
    depart_node: str = ""
    depart_at: float = bounded(0.0, ge=0)


@dataclass(frozen=True)
class MeasurementSpec(CheckedSpec):
    """What to measure and how long to run."""

    max_ticks: int = bounded(10_000, gt=0)
    resolution: float = bounded(1.0, gt=0)
    record_series: bool = True
    max_packets: int = bounded(0, ge=0)  # 0 = let the transfer loop derive its default
    #: Inert: validated and echoed, read by nothing.  It used to pick
    #: between two epoch kernels; there is one now
    #: (``SummaryScheme.usefulness_many``).  The field outlives them
    #: because the frozen ``bench/workloads.py`` still sets it.
    engine: str = bounded("reference", choices=("reference", "columnar"))
    #: Simulation fidelity: "packet" runs the per-symbol event engines
    #: (every existing scenario), "flow" the rate-equation population
    #: engine of :mod:`repro.flow` — bulk transfer as closed-form
    #: goodput between real summary handshakes, for million-peer
    #: populations.  Only scenarios registered with flow support
    #: (``population_flash_crowd``) accept it.  Sweepable via
    #: ``with_override("measurement.fidelity", ...)``.
    fidelity: str = bounded("packet", choices=("packet", "flow"))


@dataclass(frozen=True)
class PopulationSpec(CheckedSpec):
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

    size: int = bounded(10_000, ge=1)
    objects: int = bounded(1, ge=1)
    zipf_skew: float = bounded(0.8, ge=0)
    waves: int = bounded(4, ge=1)
    wave_profile: str = bounded("flash", choices=("uniform", "flash", "diurnal"))
    wave_interval: float = bounded(10.0, gt=0)
    seeded_fraction: float = bounded(0.1, ge=0, lt=1)
    rate: float = bounded(2.0, gt=0)
    loss_rate: float = bounded(0.01, ge=0, lt=1)
    rate_tiers: int = bounded(2, ge=1)
    rate_spread: float = bounded(0.25, ge=0, lt=1)
    sample_cap: int = bounded(256, ge=16)
    max_connections: int = bounded(3, ge=1)


@dataclass(frozen=True)
class CatalogSpec(CheckedSpec):
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

    objects: int = bounded(1, ge=1)
    zipf_skew: float = bounded(0.8, ge=0)
    size_skew: float = bounded(0.0, ge=0)
    priority_tiers: int = bounded(0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_value("CatalogSpec.priority_tiers", self.priority_tiers, int,
                    Bound(le=self.objects))


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
            _is_scalar(value),
            f"param {key!r} must be a finite JSON scalar, got {value!r}",
        )
    return tuple(sorted(items, key=lambda item: item[0]))


@dataclass(frozen=True)
class ExperimentSpec(ParamsSpec):
    """The complete declarative description of one experiment.

    ``scenario`` names the registered interpreter
    (:mod:`repro.api.registry`); ``seed`` is the master seed every RNG
    in the run descends from; ``params`` holds scenario-specific scalar
    extras that have no component home (stored as sorted pairs so the
    spec stays hashable; read with :meth:`param`).  The scenario's
    registration declares which params it reads and their bounds;
    :func:`repro.api.build` holds ``params`` to that declaration.
    """

    scenario: str = bounded(nonempty=True)
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
        super().__post_init__()
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

    def with_params(self, **updates: Any) -> "ExperimentSpec":
        """A copy with ``params`` entries added/replaced."""
        return dataclasses.replace(self, params={**self.params_dict(), **updates})

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
        _require(
            _is_scalar(value),
            f"override {path!r}: value must be a finite JSON scalar, got {value!r}",
        )
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
        return cls.from_dict(read_json("spec", text))


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
        child = nested_specs(type(obj))[head]()
    return dataclasses.replace(obj, **{head: _graft(child, rest, value)})


def _is_scalar(value: Any) -> bool:
    """A JSON scalar with a JSON spelling (no NaN, no infinities) and,
    if a number, one a float can hold."""
    if isinstance(value, (int, float)):
        return _finite(value)
    return value is None or isinstance(value, str)


def _override(obj: Any, parts: list, value: Any, full_path: str):
    """Recursive core of :meth:`ExperimentSpec.with_override`."""
    head, rest = parts[0], parts[1:]
    # `params.KEY` addresses the scalar-extras mapping of the spec (or
    # of a Summary/Transport/TopologySpec) rather than a dataclass field.
    if head == "params" and isinstance(obj, ParamsSpec):
        _require(
            len(rest) == 1,
            f"override {full_path!r}: 'params' takes exactly one key segment",
        )
        return dataclasses.replace(obj, params={**obj.params_dict(), rest[0]: value})
    known = {f.name for f in fields(obj)}
    _require(
        head in known,
        f"override {full_path!r}: {type(obj).__name__} has no field {head!r} "
        f"(fields: {sorted(known)})",
    )
    if not rest:
        current = getattr(obj, head)
        _require(
            not isinstance(current, tuple),
            f"override {full_path!r}: field {head!r} is an array; only scalar "
            f"fields can be overridden",
        )
        return dataclasses.replace(obj, **{head: value})
    nested = nested_specs(type(obj))
    _require(
        head in nested,
        f"override {full_path!r}: field {head!r} is not a component spec "
        f"(nested specs of {type(obj).__name__}: {sorted(nested) or ['none']})",
    )
    child = getattr(obj, head)
    if child is None:  # an unset component is extended from its defaults
        child = nested[head]()
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


def _spec_class(kind: Any) -> bool:
    return isinstance(kind, type) and issubclass(kind, CheckedSpec)


def nested_specs(cls: type) -> Dict[str, type]:
    """The fields of spec class ``cls`` that hold one nested spec."""
    return {row.name: row.type for row in contract(cls) if _spec_class(row.type)}


def _spec_from_dict(cls: type, data: Mapping[str, Any]):
    """Build any spec dataclass from a mapping, recursing per its contract.

    A nested spec given as ``null`` is ``None`` where the field is
    optional and the class's defaults where it is not.
    """
    _check_keys(cls, data)
    kwargs = dict(data)
    for name, kind, optional, _ in contract(cls):
        if name not in kwargs:
            continue
        value = kwargs[name]
        if _spec_class(kind):
            if value is not None:
                kwargs[name] = _spec_from_dict(kind, value)
            else:
                kwargs[name] = None if optional else kind()
        elif get_origin(kind) is tuple and _spec_class(get_args(kind)[0]):
            _require(
                isinstance(value, (list, tuple)),
                f"{cls.__name__} {name!r} must be an array of objects",
            )
            kwargs[name] = tuple(_spec_from_dict(get_args(kind)[0], item) for item in value)
        elif value is None and name == "params":
            kwargs[name] = ()
    return _construct(cls, kwargs)


def _spec_to_dict(obj: Any) -> Dict[str, Any]:
    """The inverse walker: any spec dataclass to plain JSON types."""
    out: Dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name == "params" and isinstance(obj, ParamsSpec):
            out[f.name] = dict(value)
        elif dataclasses.is_dataclass(value):
            out[f.name] = _spec_to_dict(value)
        elif isinstance(value, tuple):
            out[f.name] = [_spec_to_dict(item) for item in value]
        else:
            out[f.name] = value
    return out


#: The allowed values of the enum-valued fields, as their bounds declare.
LINK_KINDS = bound_of(LinkSpec, "kind").choices
SEEDING_RULES = bound_of(NodeSpec, "seeding").choices
SEED_BASES = bound_of(NodeSpec, "seed_basis").choices
NODE_ROLES = bound_of(NodeSpec, "role").choices
RECONFIG_POLICIES = bound_of(ReconfigSpec, "policy").choices
ENGINES = bound_of(MeasurementSpec, "engine").choices
FIDELITIES = bound_of(MeasurementSpec, "fidelity").choices
WAVE_PROFILES = bound_of(PopulationSpec, "wave_profile").choices


__all__ = [
    "SpecError",
    "read_json",
    "Bound",
    "bounded",
    "check_value",
    "check_fields",
    "contract",
    "bound_of",
    "CheckedSpec",
    "ParamsSpec",
    "nested_specs",
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
