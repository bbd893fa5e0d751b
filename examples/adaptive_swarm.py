#!/usr/bin/env python3
"""Adaptive swarm under churn, with sketch-orchestrated sender selection.

Demonstrates the two extension layers built on the paper's machinery:

* **Churn survival** (Section 2.1): the only source leaves mid-transfer,
  and a wave of empty peers joins a running swarm (``ChurnSpec``'s
  ``depart_node`` and ``join_waves``); because content is
  fountain-encoded, what every peer already holds stays valid and the
  swarm finishes among itself.
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
from repro.api import run, specs
from repro.reconcile import CALLING_CARD


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


def demo_churn():
    print("=" * 64)
    print("2. Swarm survives churn")
    print("=" * 64)
    # ChurnSpec.depart_node: the only source leaves mid-transfer.
    departure = run(specs.source_departure())
    report = departure.report
    print(f"source departure: completed={departure.completed} "
          f"in {report.ticks} ticks, rewirings: {report.reconfigurations}")
    for event in departure.events:
        print(f"  {event}")
    finish = [t for t in report.completion_ticks.values() if t is not None]
    print(f"completion spread: first {min(finish)}, last {max(finish)} ticks")
    # ChurnSpec.join_waves: empty latecomers join a running mirror swarm,
    # under static, random and informed rewiring.
    waves = run(specs.adaptive_overlay())
    print(f"join wave: completed={waves.completed}")
    for arm in ("static", "random", "informed"):
        print(f"  {arm:8s} ticks={waves.metrics[f'ticks[{arm}]']:.0f} "
              f"rewirings={waves.metrics[f'reconfigurations[{arm}]']:.0f}")
    return departure.completed and waves.completed


def main():
    rng = random.Random(42)
    demo_orchestration(rng)
    if not demo_churn():
        print("swarm failed to complete")
        return 1
    print("\nEvery peer — after the source left, and every latecomer — "
          "recovered the file ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
