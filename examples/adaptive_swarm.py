#!/usr/bin/env python3
"""Adaptive swarm under churn, with sketch-orchestrated sender selection.

Demonstrates the two extension layers built on the paper's machinery:

* **Churn survival** (Section 2.1): peers leave and rejoin mid-transfer;
  because content is fountain-encoded, a rejoining peer's working set is
  still valid and no connection state needs recovery.
* **Non-local orchestration** (Section 3): before connecting, a receiver
  compares *all* candidate calling cards, rejects identical-content
  peers, greedily picks the most complementary set of senders, and
  splits its demand across groups of interchangeable senders.

Run:  python examples/adaptive_swarm.py
"""

import random
import sys

from repro.delivery.orchestrator import (
    CandidateSender,
    group_identical_senders,
    select_senders,
    split_demand,
)
from repro.overlay import (
    ChurnProcess,
    OverlayNode,
    OverlaySimulator,
    SketchAdmission,
    UtilityRewiring,
    default_scheme,
    run_with_churn,
)
from repro.reconcile import CALLING_CARD

TARGET = 250
NUM_PEERS = 10


def demo_orchestration(rng):
    print("=" * 64)
    print("1. Sender selection from calling cards alone")
    print("=" * 64)
    card = CALLING_CARD.build  # ids -> the agreed min-wise card
    receiver_ids = set(rng.sample(range(1 << 20), 400))
    receiver_card = card(receiver_ids)

    mirror_ids = rng.sample(range(1 << 21, 1 << 22), 500)
    candidates = [
        # Two mirrors with identical content (a replica group),
        CandidateSender("mirror-1", card(mirror_ids), 500),
        CandidateSender("mirror-2", card(mirror_ids), 500),
        # one peer that mostly duplicates the receiver,
        CandidateSender("stale-cache", card(list(receiver_ids)[:390]), 390),
        # and one genuinely complementary peer.
        CandidateSender(
            "fresh-peer", card(rng.sample(range(1 << 23, 1 << 24), 450)), 450
        ),
    ]
    selection = select_senders(receiver_card, len(receiver_ids),
                               candidates, max_senders=2)
    print(f"chosen senders:       {selection.chosen}")
    print(f"rejected (identical): {selection.rejected_identical}")
    print(f"estimated coverage:   {selection.estimated_coverage:.0f} symbols")

    groups = group_identical_senders(candidates)
    demand = split_demand(300, groups, rng=rng)
    print(f"replica groups:       {groups}")
    print(f"demand split (300):   {demand}\n")


def demo_churn(rng):
    print("=" * 64)
    print("2. Swarm survives churn")
    print("=" * 64)
    scheme = default_scheme()
    sim = OverlaySimulator(
        admission=SketchAdmission(scheme),
        rewiring=UtilityRewiring(scheme, rng=rng),
        strategy_name="Recode/BF",
        rng=rng,
    )
    sim.add_node(OverlayNode("origin", TARGET, is_source=True))
    for i in range(NUM_PEERS):
        held = rng.sample(range(int(TARGET * 1.2)), rng.randrange(0, TARGET // 2))
        sim.add_node(OverlayNode(f"peer{i}", TARGET, initial_ids=held,
                                 max_connections=3))
        sim.connect("origin", f"peer{i}")
    churn = ChurnProcess(
        sim, leave_probability=0.04, rejoin_after=25, rng=rng
    )
    report = run_with_churn(sim, churn, max_ticks=8_000)
    print(f"completed: {report.all_complete} in {report.ticks} ticks")
    print(f"departures: {len(churn.log.departures)}, "
          f"rejoins: {len(churn.log.rejoins)}, "
          f"rewirings: {report.reconfigurations}")
    finish = [t for t in report.completion_ticks.values() if t is not None]
    print(f"completion spread: first {min(finish)}, last {max(finish)} ticks")
    churned = {n for _, n in churn.log.departures}
    print(f"peers that churned and still finished: "
          f"{sorted(n for n in churned if report.completion_ticks.get(n))}")
    return report.all_complete


def main():
    rng = random.Random(42)
    demo_orchestration(rng)
    ok = demo_churn(rng)
    if not ok:
        print("swarm failed to complete")
        return 1
    print("\nEvery peer — including those that left and rejoined — "
          "recovered the file ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
