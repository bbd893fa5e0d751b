"""Spec pipeline end-to-end: the registered catalog at benchmark scale.

Not a paper figure — this times :func:`repro.api.run` over the scenario
registry (the pipeline every catalog, figure script, and the CLI now
share) and demonstrates the one-schema output path: with
``REPRO_BENCH_JSON=<dir>`` the per-scenario ``RunResult``s land in
``BENCH_api_scenarios.json`` in the same ``repro.run_result/1`` format
``python -m repro.api`` prints.
"""

import functools
import time

from conftest import print_series, write_bench_json

from repro.api import registry, run, specs

#: Benchmark-scale specs (bigger than the tier-1 miniatures, smaller
#: than the 256-node acceptance runs).
BENCH_SPECS = {
    "flash_crowd": lambda: specs.flash_crowd(num_peers=64, waves=4, seed=11),
    "source_departure": lambda: specs.source_departure(num_peers=16, seed=23),
    "asymmetric_bandwidth": lambda: specs.asymmetric_bandwidth(
        num_fast=8, num_slow=8, seed=31
    ),
    "correlated_regional_loss": lambda: specs.correlated_regional_loss(
        peers_per_region=8, seed=48
    ),
    "pair_transfer": lambda: specs.pair_transfer(
        target=2_000, correlation=0.3, seed=7
    ),
    "multi_sender_transfer": lambda: specs.multi_sender_transfer(
        target=2_000, correlation=0.2, num_senders=4, seed=13
    ),
    "session_swarm": lambda: specs.session_swarm(
        num_receivers=4, num_blocks=120, seed=9
    ),
    # Stretched layout: enough sender-side slack that even low-budget
    # approximate summaries recover the full deficit (compact layouts
    # plateau below completion — that regime belongs to the tradeoff
    # sweep itself, not this all-complete pipeline bench).
    "summary_tradeoff": lambda: specs.summary_tradeoff(
        target=400,
        multiplier=1.5,
        correlation=0.2,
        kinds="minwise,bloom,art,hashset",
        budgets="8,16",
        seed=17,
    ),
}


# Every other registered scenario runs the registry's own miniature, so
# a scenario added to the catalog is benchmarked without a hand-kept
# entry here going stale.
for _name in registry.names():
    BENCH_SPECS.setdefault(_name, functools.partial(registry.small_spec, _name))


def test_spec_pipeline_catalog(benchmark):
    assert set(BENCH_SPECS) == set(registry.names())
    rows, results = [], []

    def sweep():
        rows.clear()
        results.clear()
        for name, make_spec in sorted(BENCH_SPECS.items()):
            t0 = time.perf_counter()
            result = run(make_spec())
            wall = time.perf_counter() - t0
            results.append(result)
            overhead = (
                f"{result.overhead:5.2f}" if result.overhead is not None else "  n/a"
            )
            rows.append(
                f"{name:26s} completed={result.completed}  "
                f"overhead={overhead}  wall={wall:6.3f}s"
            )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("spec pipeline catalog (repro.api.run)", rows)
    write_bench_json("api_scenarios", results)
    assert all(r.completed for r in results)
