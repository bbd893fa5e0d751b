#!/usr/bin/env python3
"""Tour of the event-driven scenario catalog (repro.sim).

Runs all four canned scenarios on the heap-scheduled event clock and
shows what the uniform tick loop could not express:

* **flash crowd** — join waves land as scheduled events; every joiner
  runs the sketch-orchestrated join decision at its own join time;
* **source departure** — the only source exits mid-transfer and the
  swarm finishes from collectively held, time-invariant content;
* **asymmetric bandwidth** — fast backbone links and slow jittery edge
  links coexist; packets arrive between ticks and out of order;
* **correlated regional loss** — every inter-region connection shares
  one Gilbert-Elliott chain, so loss bursts hit a whole region.

Then a protocol session (real payloads, Section 6 machinery) is paced
by link models on the same clock, showing transfer *time*, not just
packet counts.

Run:  python examples/event_scenarios.py
"""

import random
import sys

from repro.api import run, specs
from repro.protocol import CodeParameters, ProtocolPeer, TransferSession
from repro.sim import ConstantRateLink, EventScheduler, StatsRecorder
from repro.sim.sessions import ScheduledSession, run_sessions

#: The four catalog scenarios, now one declarative spec each.
CATALOG_SPECS = {
    "flash_crowd": specs.flash_crowd,
    "source_departure": specs.source_departure,
    "asymmetric_bandwidth": specs.asymmetric_bandwidth,
    "correlated_regional_loss": specs.correlated_regional_loss,
}


def demo_catalog():
    print("=" * 68)
    print("1. Scenario catalog under the event clock (repro.api specs)")
    print("=" * 68)
    ok = True
    for name, make_spec in CATALOG_SPECS.items():
        result = run(make_spec())
        report = result.report
        ok = ok and report.all_complete
        finishes = [t for t in report.completion_ticks.values() if t is not None]
        print(f"\n-- {name} --")
        print(
            f"complete={report.all_complete}  ticks={report.ticks}  "
            f"sent={report.packets_sent}  efficiency={report.efficiency:.2f}"
        )
        if finishes:
            print(f"completion spread: first {min(finishes)}, last {max(finishes)}")
        for event in result.events[:6]:
            print(f"  event: {event}")
    return ok


def demo_paced_sessions():
    print()
    print("=" * 68)
    print("2. Protocol sessions paced by link models on one clock")
    print("=" * 68)
    params = CodeParameters(num_blocks=120, block_size=64, stream_seed=5)
    rng = random.Random(9)
    content = bytes(
        rng.randrange(256) for _ in range(params.num_blocks * params.block_size)
    )
    scheduler = EventScheduler()
    stats = StatsRecorder()
    drivers = []
    for label, rate in (("dsl", 1.0), ("cable", 3.0), ("fiber", 10.0)):
        src = ProtocolPeer(f"src-{label}", params, content=content)
        dst = ProtocolPeer(f"dst-{label}", params)
        session = TransferSession(src, dst, rng=random.Random(13))
        drivers.append(
            ScheduledSession(
                scheduler, session, ConstantRateLink(rate),
                name=label, stats=stats,
            ).start()
        )
    run_sessions(scheduler, drivers)
    ok = True
    for driver in drivers:
        st = driver.session.stats
        ok = ok and driver.session.receiver.has_decoded
        print(
            f"{driver.name:6s} decoded={driver.session.receiver.has_decoded}  "
            f"packets={driver.packets_sent:4d}  "
            f"simulated time={st.duration:6.1f}"
        )
    samples = stats.series("dsl", "symbols")
    mid = samples[len(samples) // 2]
    print(f"\ndsl progress series: {len(samples)} samples; "
          f"halfway t={mid[0]:g} symbols={mid[1]:.0f}")
    return ok


def main():
    ok = demo_catalog()
    ok = demo_paced_sessions() and ok
    if not ok:
        print("\nsomething failed to complete")
        return 1
    print("\nEvery scenario completed and every paced session decoded ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
