"""Layer probes: fixed seeded inputs through each layer's public functions.

The one module allowed to reach below ``repro.api`` / ``repro.campaign``.
Every target is resolved by import *at run time* (:func:`resolve`): when
a later PR renames or deletes one, the metrics that needed it read
``null`` with the reason and the run carries on — a simplicity PR can
never be blocked by this file, which it is not allowed to edit.

Inputs are fixed (|S| = 2000, delta = 100, 128 permutations unless
stated) and seeded, so a probe's work is identical run to run and only
its time varies.  A probe warms its target once, then times batches and
reports the median batch, per call.
"""

import importlib
import json
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.metrics import INCREMENTAL_KINDS, SUMMARY_KINDS
from bench.tracing import Tracer

SET_SIZE = 2000
DELTA = 100
PERMUTATIONS = 128
UNIVERSE = 1 << 32

#: Build parameters a kind cannot default: CPI must be told how large a
#: discrepancy to provision for.
KIND_PARAMS: Dict[str, Dict[str, Any]] = {"cpi": {"max_discrepancy": DELTA + 16}}

#: Below-the-surface targets the traced workloads wrap (bench/phases.py).
FLOW_SIMULATOR = ("repro.flow.engine", "FlowSimulator")


class Missing(Exception):
    """A probe target is gone; the message is the metric's reason."""


def resolve(module: str, *attrs: str) -> Any:
    """Import ``module`` and walk ``attrs``; :class:`Missing` if absent."""
    try:
        obj = importlib.import_module(module)
    except ImportError as exc:
        raise Missing(f"cannot import {module}: {exc}") from None
    for attr in attrs:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            raise Missing(f"{module} has no {'.'.join(attrs)}") from None
    return obj


def per_call_seconds(fn: Callable[[], Any], budget: float = 0.05) -> float:
    """Median seconds per call of ``fn`` over five timed batches.

    The first call warms caches and lazy set-up and sizes the batches so
    that the five together take about ``budget`` seconds.
    """
    clock = time.perf_counter
    t0 = clock()
    fn()
    first = max(clock() - t0, 1e-7)
    calls = max(1, min(20_000, int(budget / 5 / first)))
    samples = []
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            fn()
        samples.append((clock() - t0) / calls)
    return statistics.median(samples)


class ProbeReport:
    """Values (or ``None`` + reason) collected while probes run."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}

    def record(self, name: str, value: float) -> None:
        self.values[name] = value

    def missing(self, name: str, reason: str) -> None:
        self.values[name] = None
        self.reasons[name] = reason


_PROBES: List[Tuple[str, Tuple[str, ...], Callable[[ProbeReport], None]]] = []


def probe(label: str, *names: str):
    """Register a probe and the metric names it is responsible for."""

    def register(fn: Callable[[ProbeReport], None]):
        _PROBES.append((label, names, fn))
        return fn

    return register


def run_probes(tracer: Tracer) -> ProbeReport:
    """Run every probe, one span each under a ``probe`` parent span."""
    report = ProbeReport()
    with tracer.span("probe"):
        for label, names, fn in _PROBES:
            reason = "probe did not report it"
            with tracer.span(f"probe.{label}"):
                try:
                    fn(report)
                except Missing as exc:
                    reason = str(exc)
                except Exception as exc:  # noqa: BLE001 - the probe boundary
                    reason = f"{type(exc).__name__}: {exc}"
            for name in names:
                if report.values.get(name) is None:
                    report.missing(name, reason)
    return report


# -- fixed inputs -------------------------------------------------------------


def _key_sets() -> Tuple[List[int], List[int], List[int]]:
    """``(a, b, fresh)``: |a| = |b| = 2000, |a Δ b| = 100, 100 fresh ids."""
    rng = random.Random(2002)
    pool = rng.sample(range(1 << 30), SET_SIZE + 2 * DELTA)
    a = pool[:SET_SIZE]
    b = a[DELTA // 2 :] + pool[SET_SIZE : SET_SIZE + DELTA // 2]
    fresh = pool[SET_SIZE + DELTA :]
    return a, b, fresh


# -- hashing ------------------------------------------------------------------


@probe(
    "hashing",
    "hashing.mix64_ns_per_key",
    "hashing.permutation_minima_us",
    "hashing.permutation_minima_fold_us",
    "hashing.bloom_index_matrix_us",
)
def _hashing(out: ProbeReport) -> None:
    a, _b, fresh = _key_sets()
    batch = "repro.hashing.batch"
    mix64_batch = resolve(batch, "mix64_batch")
    out.record(
        "hashing.mix64_ns_per_key",
        per_call_seconds(lambda: mix64_batch(a)) / SET_SIZE * 1e9,
    )
    family = resolve("repro.hashing", "PermutationFamily")(PERMUTATIONS, UNIVERSE, 0)
    minima = resolve(batch, "permutation_minima")
    out.record(
        "hashing.permutation_minima_us",
        per_call_seconds(lambda: minima(family, a)) * 1e6,
    )
    fold = resolve(batch, "permutation_minima_fold")
    floor = minima(family, a)
    out.record(
        "hashing.permutation_minima_fold_us",
        per_call_seconds(lambda: fold(family, fresh, floor)) * 1e6,
    )
    hashes = resolve("repro.hashing", "BloomHashes")(5, 8 * SET_SIZE, 0)
    matrix = resolve(batch, "bloom_index_matrix")
    out.record(
        "hashing.bloom_index_matrix_us",
        per_call_seconds(lambda: matrix(hashes, a)) * 1e6,
    )


# -- reconcile: one probe per registered kind ---------------------------------


def _reconcile_probe(kind: str) -> None:
    prefix = f"reconcile.{kind}"
    names = [
        f"{prefix}.build_us",
        f"{prefix}.estimate_us",
        f"{prefix}.payload_roundtrip_us",
        f"{prefix}.wire_bytes",
    ]
    if kind in INCREMENTAL_KINDS:
        names.append(f"{prefix}.absorb_us")

    @probe(prefix, *names)
    def _kind(out: ProbeReport) -> None:
        a, b, fresh = _key_sets()
        build = resolve("repro.reconcile", "build_summary")
        from_payload = resolve("repro.reconcile", "summary_from_payload")
        if kind not in resolve("repro.reconcile", "summary_kinds")():
            raise Missing(f"summary kind {kind!r} is no longer registered")
        params = KIND_PARAMS.get(kind, {})
        mine = build(kind, a, **params)
        out.record(f"{prefix}.wire_bytes", float(mine.wire_bytes()))
        out.record(
            f"{prefix}.build_us",
            per_call_seconds(lambda: build(kind, a, **params)) * 1e6,
        )
        theirs = build(kind, b, **{**params, **mine.compatible_build_params()})
        out.record(
            f"{prefix}.estimate_us",
            per_call_seconds(lambda: mine.estimate_difference(theirs)) * 1e6,
        )
        out.record(
            f"{prefix}.payload_roundtrip_us",
            per_call_seconds(
                lambda: from_payload(json.loads(json.dumps(mine.to_payload())))
            )
            * 1e6,
        )
        if kind in INCREMENTAL_KINDS:
            out.record(
                f"{prefix}.absorb_us",
                per_call_seconds(lambda: mine.absorb(fresh)) * 1e6,
            )


for _kind_name in SUMMARY_KINDS:
    _reconcile_probe(_kind_name)


# -- sketches / filters -------------------------------------------------------


@probe("sketches", "sketches.minwise.estimate_ns")
def _sketches(out: ProbeReport) -> None:
    a, b, _fresh = _key_sets()
    family = resolve("repro.hashing", "PermutationFamily")(PERMUTATIONS, UNIVERSE, 0)
    sketch = resolve("repro.sketches", "MinwiseSketch")
    mine, theirs = sketch.build_vectorized(a, family), sketch.build_vectorized(b, family)
    out.record(
        "sketches.minwise.estimate_ns",
        per_call_seconds(lambda: mine.estimate_resemblance(theirs)) * 1e9,
    )


@probe("filters", "filters.bloom.contains_many_us")
def _filters(out: ProbeReport) -> None:
    a, b, _fresh = _key_sets()
    bloom = resolve("repro.filters", "BloomFilter").for_elements(a)
    out.record(
        "filters.bloom.contains_many_us",
        per_call_seconds(lambda: bloom.contains_many(b)) * 1e6,
    )


# -- coding -------------------------------------------------------------------

CODING_BLOCKS = 1000
PEELER_STREAM = 4000
KNOWN_IDS_AT = 5000


@probe(
    "coding",
    "coding.encoder.symbols_per_s",
    "coding.recoder.symbols_per_s",
    "coding.peeler.symbols_per_s",
    "coding.peeler.resolved_share",
    "coding.peeler.known_ids_us",
    "coding.decoder.symbols_per_s",
)
def _coding(out: ProbeReport) -> None:
    coding = "repro.coding"
    encoder = resolve(coding, "LTEncoder")(CODING_BLOCKS, stream_seed=1)
    ids = iter(range(10**9))
    out.record(
        "coding.encoder.symbols_per_s",
        1.0 / per_call_seconds(lambda: encoder.symbol(next(ids))),
    )
    held = encoder.symbols(range(2 * CODING_BLOCKS))
    recoder = resolve(coding, "Recoder")(held, rng=random.Random(1))
    out.record(
        "coding.recoder.symbols_per_s",
        1.0 / per_call_seconds(recoder.next_symbol),
    )
    peeler_cls = resolve(coding, "RecodedPeeler")
    stream = [recoder.next_symbol() for _ in range(PEELER_STREAM)]
    known = [s.symbol_id for s in held[:CODING_BLOCKS]]
    recovered = [0]

    def peel() -> None:
        peeler = peeler_cls(known_ids=known)
        recovered[0] = sum(len(peeler.add_recoded(s)) for s in stream)

    out.record(
        "coding.peeler.symbols_per_s", PEELER_STREAM / per_call_seconds(peel, 0.2)
    )
    out.record("coding.peeler.resolved_share", recovered[0] / PEELER_STREAM)
    full = peeler_cls(known_ids=range(KNOWN_IDS_AT))
    out.record(
        "coding.peeler.known_ids_us",
        per_call_seconds(lambda: full.known_ids) * 1e6,
    )
    decoder_cls = resolve(coding, "PeelingDecoder")
    symbols = encoder.symbols(range(int(1.2 * CODING_BLOCKS)))

    def decode() -> None:
        decoder_cls(CODING_BLOCKS, track_payloads=False).add_symbols(symbols)

    out.record(
        "coding.decoder.symbols_per_s", len(symbols) / per_call_seconds(decode, 0.2)
    )


# -- delivery -----------------------------------------------------------------

STRATEGIES = (
    ("Random", "delivery.random.packets_per_s"),
    ("Random/BF", "delivery.random_bf.packets_per_s"),
    ("Recode", "delivery.recode.packets_per_s"),
    ("Recode/BF", "delivery.recode_bf.packets_per_s"),
)
SELECT_CANDIDATES = 64
PAIR_TARGET = 8000


@probe(
    "delivery.strategies",
    *(name for _legend, name in STRATEGIES),
    "delivery.receiver.receive_us",
)
def _delivery_strategies(out: ProbeReport) -> None:
    delivery = "repro.delivery"
    rng = random.Random(6)
    layout = resolve(delivery, "make_pair_scenario")(SET_SIZE, 1.1, 0.3, rng)
    make_strategy = resolve(delivery, "make_strategy")
    deficit = layout.target - len(layout.receiver)
    strategy = None
    for legend, name in STRATEGIES:
        strategy = make_strategy(
            legend, layout.sender, layout.receiver, rng, symbols_desired=deficit
        )
        out.record(name, 1.0 / per_call_seconds(strategy.next_packet))
    receiver_cls = resolve(delivery, "SimReceiver")
    packets = [strategy.next_packet() for _ in range(SET_SIZE)]
    start = list(layout.receiver.ids)

    def receive() -> None:
        receiver = receiver_cls(start, layout.target)
        for packet in packets:
            receiver.receive(packet)

    out.record(
        "delivery.receiver.receive_us",
        per_call_seconds(receive, 0.2) / len(packets) * 1e6,
    )


@probe("delivery.select_senders", "delivery.select_senders_ms")
def _delivery_select(out: ProbeReport) -> None:
    rng = random.Random(64)
    family = resolve("repro.hashing", "PermutationFamily")(PERMUTATIONS, UNIVERSE, 0)
    sketch = resolve("repro.sketches", "MinwiseSketch").build_vectorized
    candidate = resolve("repro.delivery", "CandidateSender")
    select = resolve("repro.delivery", "select_senders")
    pool = rng.sample(range(1 << 30), 4 * SET_SIZE)
    receiver = pool[:SET_SIZE]
    candidates = []
    for i in range(SELECT_CANDIDATES):
        ids = rng.sample(pool, SET_SIZE)
        candidates.append(candidate(f"c{i}", sketch(ids, family), len(ids)))
    mine = sketch(receiver, family)
    out.record(
        "delivery.select_senders_ms",
        per_call_seconds(
            lambda: select(mine, len(receiver), candidates, max_senders=4), 0.2
        )
        * 1e3,
    )


@probe(
    "delivery.pair_transfer",
    "delivery.pair_transfer_s",
    "delivery.useful_share",
    "delivery.peeler_share",
)
def _delivery_pair_transfer(out: ProbeReport) -> None:
    """One Figure 5 cell, then again with the peeler's public entry
    points timed, so the ledger says what share of a transfer they are."""
    specs, run = resolve("repro.api", "specs"), resolve("repro.api", "run")
    spec = specs.pair_transfer(
        target=PAIR_TARGET, correlation=0.3, strategy_name="Recode/BF", seed=7
    )
    clock = time.perf_counter
    t0 = clock()
    result = run(spec)
    plain = clock() - t0
    out.record("delivery.pair_transfer_s", plain)
    metrics = result.metrics
    out.record(
        "delivery.useful_share", metrics["useful_needed"] / metrics["packets_sent"]
    )

    peeler = resolve("repro.coding", "RecodedPeeler")
    spent = [0.0]

    def timed(fn):
        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += clock() - t

        return wrapper

    saved = {}
    try:
        for attr in ("known_ids", "add_recoded", "add_encoded"):
            original = peeler.__dict__.get(attr)
            if original is None:
                raise Missing(f"repro.coding.RecodedPeeler has no {attr}")
            saved[attr] = original
            if isinstance(original, property):
                setattr(peeler, attr, property(timed(original.fget)))
            else:
                setattr(peeler, attr, timed(original))
        t0 = clock()
        run(spec)
        timed_wall = clock() - t0
    finally:
        for attr, original in saved.items():
            setattr(peeler, attr, original)
    out.record("delivery.peeler_share", spent[0] / timed_wall)


# -- sim / transport / topology / protocol ------------------------------------

SCHEDULER_EVENTS = 20_000


@probe(
    "sim",
    "sim.scheduler.oneshot_events_per_s",
    "sim.scheduler.periodic_events_per_s",
    "sim.links.constant_transmit_ns",
    "sim.links.gilbert_transmit_ns",
)
def _sim(out: ProbeReport) -> None:
    scheduler_cls = resolve("repro.sim.engine", "EventScheduler")

    def noop() -> None:
        return None

    def oneshot() -> None:
        scheduler = scheduler_cls()
        for i in range(SCHEDULER_EVENTS):
            scheduler.schedule_at(float(i * 7919 % SCHEDULER_EVENTS), noop)
        scheduler.run_until(float(SCHEDULER_EVENTS))

    out.record(
        "sim.scheduler.oneshot_events_per_s",
        SCHEDULER_EVENTS / per_call_seconds(oneshot, 0.3),
    )

    def periodic() -> None:
        scheduler = scheduler_cls()
        scheduler.schedule_every(1.0, noop)
        scheduler.run_until(float(SCHEDULER_EVENTS))

    out.record(
        "sim.scheduler.periodic_events_per_s",
        SCHEDULER_EVENTS / per_call_seconds(periodic, 0.3),
    )
    rng = random.Random(3)
    constant = resolve("repro.sim.links", "ConstantRateLink")(4.0, loss_rate=0.1)
    out.record(
        "sim.links.constant_transmit_ns",
        per_call_seconds(lambda: constant.transmit(rng)) * 1e9,
    )
    gilbert = resolve("repro.sim.links", "GilbertElliottLink")(4.0)
    out.record(
        "sim.links.gilbert_transmit_ns",
        per_call_seconds(lambda: gilbert.transmit(rng)) * 1e9,
    )


class _Clock:
    now = 0.0


@probe("transport", "transport.allowance_ns", "transport.enqueue_ns")
def _transport(out: ProbeReport) -> None:
    controller = resolve("repro.transport", "TransportManager")("aimd").attach("probe")
    for _ in range(8):
        controller.on_send(0.0)
    # now < rto_min: nothing expires, so every call does the same work.
    out.record(
        "transport.allowance_ns",
        per_call_seconds(lambda: controller.allowance(1.0, 8)) * 1e9,
    )
    clock = _Clock()
    queue = resolve("repro.transport", "BottleneckQueue")(64.0, 64, clock)

    def enqueue() -> None:
        clock.now += 1.0 / 64.0
        queue.enqueue()

    out.record("transport.enqueue_ns", per_call_seconds(enqueue) * 1e9)


@probe("topology", "topology.scale_free_10k_ms", "topology.random_10k_ms")
def _topology(out: ProbeReport) -> None:
    generate = resolve("repro.topology", "generate")
    for kind in ("scale_free", "random"):
        out.record(
            f"topology.{kind}_10k_ms",
            per_call_seconds(lambda: generate(kind, 10_000, seed=1), 0.5) * 1e3,
        )


@probe("protocol", "protocol.data_pack_unpack_us", "protocol.session_swarm_s")
def _protocol(out: ProbeReport) -> None:
    message = resolve("repro.protocol.messages", "DataMessage")
    payload = bytes(1400)
    encoded = message(symbol_id=7, constituent_ids=frozenset(), payload=payload)
    recoded = message(
        symbol_id=None, constituent_ids=frozenset(range(10)), payload=payload
    )

    def pack_unpack() -> None:
        message.unpack_encoded(encoded.pack())
        message.unpack_recoded(recoded.pack())

    out.record("protocol.data_pack_unpack_us", per_call_seconds(pack_unpack) * 1e6)
    specs, run = resolve("repro.api", "specs"), resolve("repro.api", "run")
    spec = specs.session_swarm()
    out.record("protocol.session_swarm_s", per_call_seconds(lambda: run(spec), 0.3))
