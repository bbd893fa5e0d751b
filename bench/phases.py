"""Traced repetitions: the four workloads under outside-in phase spans.

The packet workloads are traced by stepping the built scenario's public
``simulator.tick()`` and reading public counters between ticks; ticks
are classified afterwards (epoch / join / plain).  Two instance
attributes are wrapped so that an epoch tick splits into rewiring,
strategy refresh and the delivery pass.  The flow engine has no public
step, so three of its methods are wrapped for the duration of the run.
The campaign is traced around its public calls (the worker processes
are opaque to in-process spans; the per-cell view comes from the plain
serial loop the campaign is compared against).

Every target below the ``repro.api`` surface is looked up at run time;
when one is missing the metrics that needed it are ``None`` with a
reason and the run still completes and is still checked.
"""

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench import probes
from bench.tracing import Tracer, span_cost, totals_by_name
from bench.workloads import Workload

Layer = Dict[str, Optional[float]]
Reasons = Dict[str, str]

SERIALISE_ROUNDS = 5


def run_traced(
    workload: Workload, inp: Any, prepared: Any, tmp_dir: str, tracer: Tracer
) -> Tuple[Any, float, Layer, Reasons]:
    """Run one traced repetition.

    Returns ``(result, traced_wall_s, layer_metrics, reasons)``; the
    result is checked by the caller exactly like an untraced one.
    """
    layer: Layer = {}
    reasons: Reasons = {}
    t0 = time.perf_counter()
    if workload.kind == "swarm":
        result = _trace_swarm(prepared, tracer, layer, reasons)
        wall = time.perf_counter() - t0
        spec, one_result = inp, result
    elif workload.kind == "flow":
        result = _trace_flow(prepared, tracer, layer, reasons)
        wall = time.perf_counter() - t0
        spec, one_result = inp, result
    else:
        result, wall, one_result = _trace_campaign(
            inp, prepared, tmp_dir, tracer, layer, reasons
        )
        spec = inp.base
    # What tracing itself cost, counted rather than inferred from two
    # noisy walls: the counter reads between ticks plus the bookkeeping
    # of every span recorded so far.
    spans = tracer.spans()
    reads = sum(s["end"] - s["start"] for s in spans if s["name"] == "trace.read_counters")
    layer["trace.bookkeeping_share"] = (reads + len(spans) * span_cost()) / wall
    _serialisation(spec, one_result, tracer, layer)
    return result, wall, layer, reasons


def _seconds_by_name(tracer: Tracer, self_time: bool = False) -> Dict[str, float]:
    totals = totals_by_name(tracer.spans(), self_time=self_time)
    return {name: entry["seconds"] for name, entry in totals.items()}


def _mean_ms(durations: List[float]) -> Optional[float]:
    return 1e3 * sum(durations) / len(durations) if durations else None


def _set(layer: Layer, reasons: Reasons, name: str, value: Optional[float], why: str) -> None:
    layer[name] = value
    if value is None:
        reasons[name] = why


# -- packet overlay -----------------------------------------------------------

_OVERLAY_CHILDREN = (
    ("_reconfigure", "overlay.reconfigure", "overlay.reconfigure_share"),
    ("_refresh_strategies", "overlay.refresh", "overlay.refresh_share"),
)


def _trace_swarm(built: Any, tracer: Tracer, layer: Layer, reasons: Reasons) -> Any:
    scenario = getattr(built, "scenario", None)
    sim = getattr(scenario, "simulator", None)
    stepping = all(
        hasattr(sim, attr) for attr in ("tick", "report", "tick_count", "scheduler")
    )
    if not stepping:
        why = "BuiltExperiment.scenario.simulator has no public tick()/report()"
        with tracer.span("overlay.run") as run_span:
            result = built.run()
        for name in (
            "overlay.plain_tick_ms", "overlay.epoch_tick_ms", "overlay.epoch_share",
            "overlay.join_tick_ms", "overlay.join_share", "overlay.deliver_share",
            "overlay.reconfigure_share", "overlay.refresh_share",
            "trace.phase_coverage",
        ):
            _set(layer, reasons, name, None, why)
        _overlay_counters(result, tracer.duration(run_span), layer, reasons)
        return result

    for attr, span_name, metric in _OVERLAY_CHILDREN:
        method = getattr(sim, attr, None)
        if method is None:
            reasons[metric] = f"simulator has no {attr}"
        else:
            setattr(sim, attr, tracer.wrap(span_name, method))

    max_ticks = built.spec.measurement.max_ticks
    ticks: Dict[str, List[int]] = {"epoch": [], "join": [], "plain": []}
    with tracer.span("overlay.run") as run_span:
        while True:
            with tracer.span("trace.read_counters"):
                done = sim.tick_count >= max_ticks or (
                    sim.report().all_complete
                    and sim.scheduler.pending_oneshot == 0
                )
                epochs_before = getattr(sim, "reconfig_epochs", 0)
                events_before = len(scenario.events)
            if done:
                break
            with tracer.span("overlay.tick") as index:
                sim.tick()
            if getattr(sim, "reconfig_epochs", 0) > epochs_before:
                kind = "epoch"
            elif len(scenario.events) > events_before:
                kind = "join"
            else:
                kind = "plain"
            tracer.rename(index, f"overlay.tick.{kind}")
            ticks[kind].append(index)
        stepped = sim.tick_count
        # Collects the RunResult; runs no further tick when the loop
        # above stopped where the engine's own run() would have.
        with tracer.span("overlay.collect"):
            result = built.run()
    wall = tracer.duration(run_span)

    spent = {k: [tracer.duration(i) for i in v] for k, v in ticks.items()}
    _set(layer, reasons, "overlay.plain_tick_ms", _mean_ms(spent["plain"]), "no plain tick ran")
    _set(layer, reasons, "overlay.epoch_tick_ms", _mean_ms(spent["epoch"]),
         "no reconfiguration epoch in this workload")
    _set(layer, reasons, "overlay.join_tick_ms", _mean_ms(spent["join"]),
         "the scenario event log never grew (no join waves)")
    layer["overlay.epoch_share"] = sum(spent["epoch"]) / wall
    layer["overlay.join_share"] = sum(spent["join"]) / wall

    by_name = _seconds_by_name(tracer, self_time=True)
    for _attr, span_name, metric in _OVERLAY_CHILDREN:
        if metric not in reasons:
            layer[metric] = by_name.get(span_name, 0.0) / wall
        else:
            layer[metric] = None
    # A tick's self time is the delivery pass plus the scheduler and the
    # deferred arrivals/acks it pops: everything that is not rewiring or
    # strategy refresh.  Join ticks are left to overlay.join_share, whose
    # self time is mostly the wave's join planning.
    layer["overlay.deliver_share"] = (
        by_name.get("overlay.tick.plain", 0.0) + by_name.get("overlay.tick.epoch", 0.0)
    ) / wall
    all_ticks = sum(sum(v) for v in spent.values())
    if result.metrics.get("ticks") == stepped:
        layer["trace.phase_coverage"] = all_ticks / wall
    else:
        _set(layer, reasons, "trace.phase_coverage", None,
             f"stepping stopped at tick {stepped}, run() went on to "
             f"{result.metrics.get('ticks')}")
    _overlay_counters(result, wall, layer, reasons)
    return result


def _overlay_counters(result: Any, wall: float, layer: Layer, reasons: Reasons) -> None:
    m = result.metrics
    layer["overlay.ticks"] = m["ticks"]
    layer["overlay.epochs"] = m.get("reconfig_epochs", 0.0)
    layer["overlay.packets_sent"] = m["packets_sent"]
    layer["overlay.packets_per_s"] = m["packets_sent"] / wall
    layer["overlay.useful_share"] = (
        m["packets_useful"] / m["packets_sent"] if m["packets_sent"] else 0.0
    )
    layer["overlay.reconfigurations"] = m["reconfigurations"]
    layer["overlay.control_bytes"] = m.get("reconfig_control_bytes", 0.0)
    _set(
        layer, reasons, "overlay.control_bytes_per_rewire",
        m.get("reconfig_control_bytes", 0.0) / m["reconfigurations"]
        if m["reconfigurations"] else None,
        "no connection was rewired",
    )
    transport = {
        "transport.tracked": "transport_tracked",
        "transport.acked": "transport_acked",
        "transport.timeouts": "transport_timeouts",
        "transport.queue_offered": "queue_offered",
        "transport.queue_drops": "queue_drops",
        "transport.queue_delay_mean": "queue_delay_mean",
    }
    for name, key in transport.items():
        _set(layer, reasons, name, m.get(key), "the workload configures no transport")
    tracked = m.get("transport_tracked")
    _set(
        layer, reasons, "transport.ack_share",
        m["transport_acked"] / tracked if tracked else None,
        "the workload configures no transport",
    )


# -- flow ---------------------------------------------------------------------

_FLOW_METHODS = (
    ("__init__", "flow.build"),
    ("_advance", "flow.advance"),
    ("_reconfigure", "flow.reconfigure"),
)


def _trace_flow(built: Any, tracer: Tracer, layer: Layer, reasons: Reasons) -> Any:
    saved: List[Tuple[Any, str, Callable]] = []
    missing: Dict[str, str] = {}
    try:
        try:
            engine = probes.resolve(*probes.FLOW_SIMULATOR)
        except probes.Missing as exc:
            engine = None
            missing = {span: str(exc) for _attr, span in _FLOW_METHODS}
        if engine is not None:
            for attr, span_name in _FLOW_METHODS:
                original = engine.__dict__.get(attr)
                if original is None:
                    missing[span_name] = f"FlowSimulator defines no {attr}"
                    continue
                saved.append((engine, attr, original))
                setattr(engine, attr, tracer.wrap(span_name, original))
        with tracer.span("flow.run") as run_span:
            result = built.run()
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    wall = tracer.duration(run_span)

    totals = _seconds_by_name(tracer)
    m = result.metrics
    ticks, epochs = m["ticks"], m.get("reconfig_epochs", 0.0)

    def phase(span_name: str, scale: float) -> Optional[float]:
        if span_name in missing:
            return None
        return totals.get(span_name, 0.0) * scale

    _set(layer, reasons, "flow.build_s", phase("flow.build", 1.0),
         missing.get("flow.build", ""))
    _set(layer, reasons, "flow.ms_per_tick",
         phase("flow.advance", 1e3 / ticks) if ticks else None,
         missing.get("flow.advance", "no simulated tick"))
    _set(layer, reasons, "flow.ms_per_epoch",
         phase("flow.reconfigure", 1e3 / epochs) if epochs else None,
         missing.get("flow.reconfigure", "no reconfiguration epoch"))
    layer["flow.ticks"] = ticks
    layer["flow.epochs"] = epochs
    layer["flow.control_bytes"] = m.get("reconfig_control_bytes", 0.0)
    layer["flow.useful_share"] = (
        m["packets_useful"] / m["packets_sent"] if m["packets_sent"] else 0.0
    )
    if missing:
        _set(layer, reasons, "trace.phase_coverage", None, next(iter(missing.values())))
    else:
        layer["trace.phase_coverage"] = (
            sum(totals.get(span, 0.0) for _attr, span in _FLOW_METHODS) / wall
        )
    return result


# -- campaign -----------------------------------------------------------------


def _trace_campaign(
    campaign: Any, cells: Any, tmp_dir: str, tracer: Tracer, layer: Layer, reasons: Reasons
) -> Tuple[Any, float, Any]:
    from repro.api import run
    from repro.campaign import expand, run_campaign

    from bench.workloads import CAMPAIGN_WORKERS

    with tracer.span("campaign.expand") as index:
        expand(campaign)
    layer["campaign.expand_ms"] = 1e3 * tracer.duration(index)

    with tracer.span("campaign.workers2") as index:
        result = run_campaign(
            campaign, workers=CAMPAIGN_WORKERS, out_dir=os.path.join(tmp_dir, "w2")
        )
    wall = tracer.duration(index)

    first = None
    cell_spans = []
    with tracer.span("campaign.serial_loop") as index:
        for cell in cells:
            with tracer.span("campaign.cell") as cell_index:
                one = run(cell.spec)
            cell_spans.append(cell_index)
            first = first or one
    serial = tracer.duration(index)

    out_dir = os.path.join(tmp_dir, "w1")
    with tracer.span("campaign.workers1") as index:
        run_campaign(campaign, workers=1, out_dir=out_dir)
    workers1 = tracer.duration(index)

    n = len(cells)
    sizes = [
        os.path.getsize(os.path.join(out_dir, f"{cell.cell_id}.json")) for cell in cells
    ]
    layer["campaign.cells"] = float(n)
    layer["campaign.failed_cells"] = float(result.n_failed)
    layer["campaign.serial_loop_s"] = serial
    layer["campaign.workers1_s"] = workers1
    layer["campaign.overhead_ms_per_cell"] = 1e3 * (workers1 - serial) / n
    layer["campaign.parallel_efficiency"] = workers1 / (CAMPAIGN_WORKERS * wall)
    layer["campaign.cell_json_bytes"] = sum(sizes) / n
    layer["trace.phase_coverage"] = (
        sum(tracer.duration(i) for i in cell_spans) / serial
    )
    return result, wall, first


# -- spec / result serialisation ----------------------------------------------


def _serialisation(spec: Any, result: Any, tracer: Tracer, layer: Layer) -> None:
    """``api.*`` costs on this workload's own spec and result."""
    from repro.api.result import validate_result_dict

    def mean_us(fn: Callable[[], Any]) -> float:
        t0 = time.perf_counter()
        for _ in range(SERIALISE_ROUNDS):
            fn()
        return 1e6 * (time.perf_counter() - t0) / SERIALISE_ROUNDS

    with tracer.span("api.serialisation"):
        layer["api.spec_roundtrip_us"] = mean_us(
            lambda: type(spec).from_json(spec.to_json())
        )
        text = result.to_json()
        layer["api.result_bytes"] = float(len(text.encode("utf-8")))
        layer["api.result_to_json_us"] = mean_us(result.to_json)
        data = json.loads(text)
        layer["api.result_validate_us"] = mean_us(lambda: validate_result_dict(data))
