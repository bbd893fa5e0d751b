"""Event-engine scaling: flash crowds to 256 nodes, swarms to 10k.

Not a paper figure — this benchmarks the `repro.sim` substrate the
scenario library runs on: how delivery throughput and wall time scale
with swarm size when demand arrives in waves and every joiner runs the
sketch-orchestrated join decision.  The 256-node point doubles as the
acceptance run for the event clock (a full flash crowd end-to-end).

The engine-scaling benches time an adaptive-overlay-style workload
(informed rewiring every 5 ticks, uninformed ``Random`` senders — the
adaptive_overlay scenario's own defaults, which isolate the peering
axis).  ``MeasurementSpec.engine`` selects nothing any more — there is
one epoch and one estimate kernel — so the two values it still accepts
only label the ``repro.bench_meta/1`` entries the checked-in baseline
names, and the 1k point (CI bench baseline, ``REPRO_BENCH_JSON``) pins
that a run under either value is packet-for-packet the same; it makes
no speed comparison between them.  The 10k point is marked ``slow``
(``--runslow``) and reports the per-node-tick cost of a budgeted scan:
at 10k the full candidate scan is quadratic and the dominant cost, so
the run sets ``reconfig.scan_budget`` — see README "Scaling up".

The incremental-maintenance benches time the steady state of the absorb
path (cards, filters and strategies maintained per new symbol): the 10k
point and the 100k flash-crowd window are ``slow`` and pin that the hot
paths keep a six-figure swarm tickable — see README "Performance".
Rebuild-on-dirty is no longer a mode of the library, so there is no
rebuild arm to race; ``tests/overlay/test_incremental.py`` keeps it as a
correctness oracle.
"""

import time

import pytest
from conftest import print_series, write_bench_json

from repro.api import build, specs

#: The event-driven catalog: the four scenarios that stress the clock.
EVENT_SCENARIOS = (
    "flash_crowd",
    "source_departure",
    "asymmetric_bandwidth",
    "correlated_regional_loss",
)


def run_flash_crowd(num_peers, target=100, waves=None, wave_interval=15):
    if waves is None:
        waves = max(2, num_peers // 32)
    seeded = max(4, num_peers // 32)
    scenario = build(
        specs.flash_crowd(
            num_peers=num_peers,
            target=target,
            waves=waves,
            wave_interval=wave_interval,
            initial_seeded=seeded,
        )
    ).scenario
    t0 = time.perf_counter()
    report = scenario.run(max_ticks=20_000)
    wall = time.perf_counter() - t0
    return scenario, report, wall


def test_flash_crowd_scaling(benchmark):
    sizes = (32, 64, 128)
    rows = []

    def sweep():
        rows.clear()
        for n in sizes:
            scenario, report, wall = run_flash_crowd(n)
            assert report.all_complete, f"{n}-node crowd failed to complete"
            rows.append(
                f"peers={n:4d}  ticks={report.ticks:5d}  "
                f"sent={report.packets_sent:7d}  "
                f"useful={report.packets_useful:6d}  "
                f"eff={report.efficiency:5.2f}  "
                f"pkts/s={report.packets_sent / wall:9.0f}  "
                f"wall={wall:5.2f}s"
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("flash-crowd scaling (event engine)", rows)


def test_flash_crowd_256_nodes_end_to_end(benchmark):
    """Acceptance run: a 256-node flash crowd under the event clock."""

    def big():
        return run_flash_crowd(256, waves=8)

    scenario, report, wall = benchmark.pedantic(big, rounds=1, iterations=1)
    print_series(
        "256-node flash crowd",
        [
            f"complete={report.all_complete}  ticks={report.ticks}  "
            f"sent={report.packets_sent}  efficiency={report.efficiency:.2f}  "
            f"waves={len(scenario.events)}  wall={wall:.2f}s"
        ],
    )
    assert report.all_complete
    assert len(scenario.events) == 8  # every wave fired on the clock
    # Every joiner planned its connections from live calling cards.
    assert len(scenario.extras["join_plans"]) == 256 - 8


def test_scenario_catalog_under_event_clock(benchmark):
    """All four catalog scenarios complete on the shared event clock."""

    def catalog():
        return {
            name: build(getattr(specs, name)()).scenario.run(max_ticks=10_000)
            for name in EVENT_SCENARIOS
        }

    results = benchmark.pedantic(catalog, rounds=1, iterations=1)
    rows = [
        f"{name:26s} complete={r.all_complete}  ticks={r.ticks:4d}  "
        f"efficiency={r.efficiency:.2f}"
        for name, r in results.items()
    ]
    print_series("scenario catalog", rows)
    assert all(r.all_complete for r in results.values())


# -- engine scaling: the adaptive-style window at 250, 1k and 10k -----------

ADAPTIVE_TICKS = 10  # two 5-tick reconfiguration epochs per window


def _adaptive_style_sim(engine, num_peers, scan_budget=0):
    """An adaptive_overlay-style swarm: informed rewiring, Random senders."""
    spec = (
        specs.random_overlay(
            num_peers=num_peers, target=100, seed=0, with_physical=False
        )
        .with_override("strategy.name", "Random")
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.interval", 5.0)
        .with_override("measurement.engine", engine)
    )
    if scan_budget:
        spec = spec.with_override("reconfig.scan_budget", scan_budget)
    return build(spec).scenario.simulator


def _timed_window(engine, num_peers, ticks=ADAPTIVE_TICKS, scan_budget=0):
    sim = _adaptive_style_sim(engine, num_peers, scan_budget)
    t0 = time.perf_counter()
    for _ in range(ticks):
        sim.tick()
    wall = time.perf_counter() - t0
    return wall, sim.report()


def _meta_entry(engine, num_peers, ticks, wall, report, scan_budget=0):
    return {
        "schema": "repro.bench_meta/1",
        "name": f"sim_scaling_{engine}_{num_peers}",
        "engine": engine,
        "peers": num_peers,
        "ticks": ticks,
        "scan_budget": scan_budget,
        "packets_sent": report.packets_sent,
        "us_per_node_tick": wall / ticks / num_peers * 1e6,
        "wall_seconds": wall,
    }


def test_engine_scaling_1k(benchmark):
    """CI point: 1k nodes under both ``measurement.engine`` values,
    identical totals — the field is inert, so the two windows run the
    same code and only parity is asserted.

    Full candidate scans (the informed default): the workload where
    batching a receiver's card comparisons pays off most.
    """
    rows, entries, walls = [], [], {}

    def sweep():
        rows.clear(), entries.clear()
        for engine, n in (
            ("columnar", 250),
            ("columnar", 1000),
            ("reference", 1000),
        ):
            wall, report = _timed_window(engine, n)
            walls[(engine, n)] = (wall, report)
            entries.append(_meta_entry(engine, n, ADAPTIVE_TICKS, wall, report))
            rows.append(
                f"{engine:9s} peers={n:5d}  sent={report.packets_sent:7d}  "
                f"us/node-tick={wall / ADAPTIVE_TICKS / n * 1e6:7.1f}  "
                f"wall={wall:5.2f}s"
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("engine scaling, adaptive-style 1k (full scan)", rows)
    write_bench_json("sim_scaling", entries)

    _, ref_report = walls[("reference", 1000)]
    _, col_report = walls[("columnar", 1000)]
    # The engine value must change nothing, packet for packet.
    assert (
        col_report.packets_sent,
        col_report.packets_lost,
        col_report.packets_useful,
    ) == (
        ref_report.packets_sent,
        ref_report.packets_lost,
        ref_report.packets_useful,
    )


# -- incremental summary maintenance: the absorb path's steady state --------
#
# The incremental workload uses larger working sets (the regime where
# per-symbol absorption matters), a budgeted candidate scan (so the
# epoch's cost is card maintenance, not the policy loop), and a warm-up
# window past the first epoch — the claim is about steady-state
# maintenance, not the cold build.

INCR_TARGET = 5_000
INCR_INTERVAL = 2.5
INCR_BUDGET = 16
INCR_WARMUP = 3
INCR_TICKS = 5


def _incremental_sim(engine, num_peers, target=INCR_TARGET):
    spec = (
        specs.random_overlay(
            num_peers=num_peers, target=target, seed=0, with_physical=False
        )
        .with_override("strategy.name", "Random")
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.interval", INCR_INTERVAL)
        .with_override("reconfig.scan_budget", INCR_BUDGET)
        .with_override("measurement.engine", engine)
        .with_override("measurement.record_series", False)
    )
    return build(spec).scenario.simulator


def _incremental_window(engine, num_peers, target=INCR_TARGET):
    """Steady-state wall clock past the first (cold-build) epoch."""
    sim = _incremental_sim(engine, num_peers, target)
    for _ in range(INCR_WARMUP):
        sim.tick()
    t0 = time.perf_counter()
    for _ in range(INCR_TICKS):
        sim.tick()
    wall = time.perf_counter() - t0
    return wall, sim.report()


@pytest.mark.slow
def test_incremental_10k_steady_state(benchmark):
    """The 10k adaptive-style point in steady state (columnar kernel,
    budgeted scans, past the first epoch): absorb-path maintenance keeps
    it near the 1k per-node-tick cost."""
    results = {}

    def window():
        results["inc"] = _incremental_window("columnar", 10_000)
        return results

    benchmark.pedantic(window, rounds=1, iterations=1)
    wall, report = results["inc"]
    unit = wall / INCR_TICKS / 10_000 * 1e6
    print_series(
        "incremental 10k steady state (adaptive-style)",
        [f"wall={wall:6.2f}s  us/node-tick={unit:7.1f}  sent={report.packets_sent}"],
    )
    write_bench_json(
        "sim_incremental",
        [
            {
                "schema": "repro.bench_meta/1",
                "name": "sim_incremental_columnar_10000",
                "engine": "columnar",
                "peers": 10_000,
                "ticks": INCR_TICKS,
                "packets_sent": report.packets_sent,
                "us_per_node_tick": unit,
                "wall_seconds": wall,
            }
        ],
    )
    assert report.packets_sent > 0


@pytest.mark.slow
def test_flash_crowd_100k_columnar(benchmark):
    """Acceptance: a 100k-peer flash-crowd window on the columnar kernel.

    Flash-crowd demand profile — nearly-empty peers rushing a handful
    of sources — at 100k nodes, run as a bounded timed window (one
    reconfiguration epoch included) with a budgeted scan.  Pins that
    the incremental hot paths keep a 100k swarm tickable at all: the
    window covers delivery, strategy refresh, and one full budgeted
    epoch over every receiver.
    """
    results = {}

    def window():
        spec = (
            specs.random_overlay(
                num_peers=100_000,
                target=100,
                num_sources=16,
                initial_fraction_lo=0.0,
                initial_fraction_hi=0.05,
                seed=0,
                with_physical=False,
            )
            .with_override("strategy.name", "Random")
            .with_override("reconfig.policy", "informed")
            .with_override("reconfig.interval", 5.0)
            .with_override("reconfig.scan_budget", 8)
            .with_override("measurement.engine", "columnar")
            .with_override("measurement.record_series", False)
        )
        sim = build(spec).scenario.simulator
        t0 = time.perf_counter()
        for _ in range(8):
            sim.tick()
        results["wall"] = time.perf_counter() - t0
        results["report"] = sim.report()
        return results

    benchmark.pedantic(window, rounds=1, iterations=1)
    wall, report = results["wall"], results["report"]
    unit = wall / 8 / 100_000 * 1e6
    print_series(
        "100k flash crowd (columnar, 8-tick window)",
        [
            f"sent={report.packets_sent}  useful={report.packets_useful}  "
            f"us/node-tick={unit:.1f}  wall={wall:.1f}s"
        ],
    )
    write_bench_json(
        "sim_flash_100k",
        [
            {
                "schema": "repro.bench_meta/1",
                "name": "sim_scaling_columnar_100k_flash",
                "engine": "columnar",
                "peers": 100_000,
                "ticks": 8,
                "scan_budget": 8,
                "packets_sent": report.packets_sent,
                "us_per_node_tick": unit,
                "wall_seconds": wall,
            }
        ],
    )
    assert report.packets_sent > 0
    assert report.packets_useful > 0


@pytest.mark.slow
def test_columnar_10k_adaptive(benchmark):
    """The 10k adaptive-style window, budgeted scan.

    The 10k run uses ``reconfig.scan_budget`` — at that size a full
    scan is quadratic and is exactly what the budget knob exists for.
    A reported point: there is one kernel, so nothing to race.
    """
    results = {}

    def window():
        results["col_10k"] = _timed_window("columnar", 10_000, scan_budget=32)
        return results

    benchmark.pedantic(window, rounds=1, iterations=1)
    wall, report = results["col_10k"]
    unit = wall / ADAPTIVE_TICKS / 10_000 * 1e6
    print_series(
        "10k adaptive-style window (scan budget 32)",
        [
            f"wall={wall:6.2f}s  us/node-tick={unit:7.1f}  "
            f"sent={report.packets_sent}"
        ],
    )
    assert report.packets_sent > 0
