"""The metric declaration: names, units, directions and bounds.

``BENCHMARK.json`` at the repo root is generated from these tables
(``bench/tests/test_bench_declaration.py`` holds the two equal), so the
harness, the compare verb and the driver's contract file cannot drift.

Units use ASCII only (``us`` for microseconds) because the contract
restricts the unit alphabet.
"""

from typing import Dict, List, NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median the metric may worsen by before
    #: ``compare`` calls it a regression.
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str


#: The three times are host-normalised (bench/calibration.py).  Their
#: bounds are the contract's maximum, not the 10 % the issue hoped for:
#: bench/README.md, "Measured run-to-run spread", has the numbers that
#: forced them.
END_TO_END: Tuple[EndToEnd, ...] = (
    # wall time of the timed region / host factor
    EndToEnd("wall_s", "s", "lower", 0.25),
    # wall_s / the workload's deterministic unit count
    EndToEnd("us_per_unit", "us", "lower", 0.25),
    # (import repro.api + spec construction + build) / host factor
    EndToEnd("setup_s", "s", "lower", 0.25),
    # peak RSS of the repetition's process plus its largest worker
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
    # useful / delivered packets; exact for a given seed, so the bound
    # only has to cover the variation between seeds
    EndToEnd("sim_efficiency", "ratio", "higher", 0.1),
)

#: ``fail_share`` is printed beside the five above but is not declared
#: in BENCHMARK.json: the contract asks for metrics that are never 0
#: and carries failures in the result line's ``failed`` / ``attempted``.
FAIL_SHARE = EndToEnd("fail_share", "ratio", "lower", 0.0)

#: Every registered summary kind at the time the ledger was defined.
SUMMARY_KINDS: Tuple[str, ...] = (
    "art", "bloom", "counting_bloom", "cpi", "hashset",
    "minwise", "modk", "partitioned_bloom", "random_sample", "wholeset",
)
INCREMENTAL_KINDS: Tuple[str, ...] = (
    "bloom", "counting_bloom", "hashset", "minwise",
)


def _reconcile_layers() -> List[Layer]:
    out: List[Layer] = []
    for kind in SUMMARY_KINDS:
        out.append(Layer(f"reconcile.{kind}.build_us", "us", "lower"))
        out.append(Layer(f"reconcile.{kind}.estimate_us", "us", "lower"))
        out.append(Layer(f"reconcile.{kind}.payload_roundtrip_us", "us", "lower"))
        out.append(Layer(f"reconcile.{kind}.wire_bytes", "bytes", "lower"))
        if kind in INCREMENTAL_KINDS:
            out.append(Layer(f"reconcile.{kind}.absorb_us", "us", "lower"))
    return out


#: Phase metrics come from the traced workloads (bench/phases.py), probe
#: metrics from fixed seeded inputs (bench/probes.py).
PHASE_LAYERS: Tuple[Layer, ...] = (
    Layer("api.import_s", "s", "lower"),
    Layer("api.build_s", "s", "lower"),
    Layer("api.spec_roundtrip_us", "us", "lower"),
    Layer("api.result_to_json_us", "us", "lower"),
    Layer("api.result_validate_us", "us", "lower"),
    Layer("api.result_bytes", "bytes", "lower"),
    Layer("overlay.plain_tick_ms", "ms", "lower"),
    Layer("overlay.epoch_tick_ms", "ms", "lower"),
    Layer("overlay.epoch_share", "ratio", "lower"),
    Layer("overlay.join_tick_ms", "ms", "lower"),
    Layer("overlay.join_share", "ratio", "lower"),
    Layer("overlay.reconfigure_share", "ratio", "lower"),
    Layer("overlay.refresh_share", "ratio", "lower"),
    Layer("overlay.deliver_share", "ratio", "lower"),
    Layer("overlay.ticks", "count", "lower"),
    Layer("overlay.epochs", "count", "lower"),
    Layer("overlay.packets_sent", "count", "lower"),
    Layer("overlay.packets_per_s", "1/s", "higher"),
    Layer("overlay.useful_share", "ratio", "higher"),
    Layer("overlay.reconfigurations", "count", "lower"),
    Layer("overlay.control_bytes", "bytes", "lower"),
    Layer("overlay.control_bytes_per_rewire", "bytes", "lower"),
    Layer("transport.tracked", "count", "lower"),
    Layer("transport.acked", "count", "higher"),
    Layer("transport.timeouts", "count", "lower"),
    Layer("transport.ack_share", "ratio", "higher"),
    Layer("transport.queue_offered", "count", "lower"),
    Layer("transport.queue_drops", "count", "lower"),
    Layer("transport.queue_delay_mean", "ticks", "lower"),
    Layer("campaign.expand_ms", "ms", "lower"),
    Layer("campaign.cells", "count", "higher"),
    Layer("campaign.failed_cells", "count", "lower"),
    Layer("campaign.serial_loop_s", "s", "lower"),
    Layer("campaign.workers1_s", "s", "lower"),
    Layer("campaign.overhead_ms_per_cell", "ms", "lower"),
    Layer("campaign.parallel_efficiency", "ratio", "higher"),
    Layer("campaign.cell_json_bytes", "bytes", "lower"),
    Layer("flow.build_s", "s", "lower"),
    Layer("flow.ms_per_tick", "ms", "lower"),
    Layer("flow.ms_per_epoch", "ms", "lower"),
    Layer("flow.ticks", "count", "lower"),
    Layer("flow.epochs", "count", "lower"),
    Layer("flow.control_bytes", "bytes", "lower"),
    Layer("flow.useful_share", "ratio", "higher"),
    Layer("host.calib_ms", "ms", "lower"),
    Layer("host.cpu_s", "s", "lower"),
    Layer("trace.overhead_share", "ratio", "lower"),
    Layer("trace.bookkeeping_share", "ratio", "lower"),
    Layer("trace.phase_coverage", "ratio", "higher"),
)

PROBE_LAYERS: Tuple[Layer, ...] = (
    Layer("hashing.mix64_ns_per_key", "ns", "lower"),
    Layer("hashing.permutation_minima_us", "us", "lower"),
    Layer("hashing.permutation_minima_fold_us", "us", "lower"),
    Layer("hashing.bloom_index_matrix_us", "us", "lower"),
    *_reconcile_layers(),
    Layer("sketches.minwise.estimate_ns", "ns", "lower"),
    Layer("filters.bloom.contains_many_us", "us", "lower"),
    Layer("coding.encoder.symbols_per_s", "1/s", "higher"),
    Layer("coding.recoder.symbols_per_s", "1/s", "higher"),
    Layer("coding.peeler.symbols_per_s", "1/s", "higher"),
    Layer("coding.peeler.known_ids_us", "us", "lower"),
    Layer("coding.peeler.resolved_share", "ratio", "higher"),
    Layer("coding.decoder.symbols_per_s", "1/s", "higher"),
    Layer("delivery.random.packets_per_s", "1/s", "higher"),
    Layer("delivery.random_bf.packets_per_s", "1/s", "higher"),
    Layer("delivery.recode.packets_per_s", "1/s", "higher"),
    Layer("delivery.recode_bf.packets_per_s", "1/s", "higher"),
    Layer("delivery.receiver.receive_us", "us", "lower"),
    Layer("delivery.select_senders_ms", "ms", "lower"),
    Layer("delivery.pair_transfer_s", "s", "lower"),
    Layer("delivery.peeler_share", "ratio", "lower"),
    Layer("delivery.useful_share", "ratio", "higher"),
    Layer("sim.scheduler.oneshot_events_per_s", "1/s", "higher"),
    Layer("sim.scheduler.periodic_events_per_s", "1/s", "higher"),
    Layer("sim.links.constant_transmit_ns", "ns", "lower"),
    Layer("sim.links.gilbert_transmit_ns", "ns", "lower"),
    Layer("transport.allowance_ns", "ns", "lower"),
    Layer("transport.enqueue_ns", "ns", "lower"),
    Layer("topology.scale_free_10k_ms", "ms", "lower"),
    Layer("topology.random_10k_ms", "ms", "lower"),
    Layer("protocol.data_pack_unpack_us", "us", "lower"),
    Layer("protocol.session_swarm_s", "s", "lower"),
)

PER_LAYER: Tuple[Layer, ...] = PHASE_LAYERS + PROBE_LAYERS

LAYER_UNITS: Dict[str, str] = {m.name: m.unit for m in PER_LAYER}
