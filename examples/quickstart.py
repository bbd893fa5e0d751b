#!/usr/bin/env python3
"""Quickstart: encode a file, reconcile two peers, transfer informed.

Walks the paper's pipeline end to end on a small file:

1. fountain-encode content into symbols (Section 5.4.1);
2. estimate working-set correlation from 1KB min-wise sketches (§4);
3. ship a Bloom summary and compare transfer strategies (§5.2, §6.2);
4. decode and verify the received bytes.

Run:  python examples/quickstart.py
"""

import random
import sys

from repro import (
    LTEncoder,
    PeelingDecoder,
    SimReceiver,
    WorkingSet,
    build_summary,
    make_pair_scenario,
    make_strategy,
    simulate_p2p_transfer,
)
from repro.reconcile import containment_from_resemblance


def demo_coding():
    print("=" * 60)
    print("1. Digital fountain: encode, lose packets, decode anyway")
    print("=" * 60)
    rng = random.Random(7)
    content = bytes(rng.randrange(256) for _ in range(100_000))
    encoder = LTEncoder.from_content(content, block_size=1_000, stream_seed=1)
    decoder = PeelingDecoder(encoder.num_blocks)
    received = 0
    for symbol in encoder.stream():
        if rng.random() < 0.3:  # 30% packet loss — the fountain shrugs
            continue
        decoder.add_symbol(symbol)
        received += 1
        if decoder.is_complete:
            break
    assert decoder.decoded_content(trim_to=len(content)) == content
    overhead = received / encoder.num_blocks - 1
    print(f"blocks: {encoder.num_blocks}, symbols used: {received} "
          f"({overhead:.1%} decoding overhead), content verified ✓\n")


def demo_sketches():
    print("=" * 60)
    print("2. Min-wise calling cards: estimate overlap in one 1KB packet")
    print("=" * 60)
    rng = random.Random(11)
    scenario = make_pair_scenario(2_000, 1.1, 0.3, rng)
    sk_recv, sk_send = (
        build_summary("minwise", ws.ids, entries=128, universe=1 << 32, seed=99)
        for ws in (scenario.receiver, scenario.sender)
    )
    r = sk_send.estimate_resemblance(sk_recv)
    est = containment_from_resemblance(
        r, len(scenario.receiver), len(scenario.sender)
    )
    print(f"card size: {8 * len(sk_send.minima)} bytes of minima "
          f"({sk_send.wire_bytes()} on the wire)")
    print(f"estimated correlation: {est:.3f}  (true: {scenario.correlation:.3f})\n")
    return scenario, est


def demo_transfer(scenario, correlation_estimate):
    print("=" * 60)
    print("3. Informed transfer: five strategies on the same scenario")
    print("=" * 60)
    deficit = scenario.target - len(scenario.receiver)
    print(f"receiver holds {len(scenario.receiver)}, needs {deficit} more "
          f"of the sender's {len(scenario.sender)} symbols\n")
    print(f"{'strategy':10s} {'overhead':>9s} {'packets':>8s}")
    for name in ("Random", "Random/BF", "Recode", "Recode/BF", "Recode/MW"):
        rng = random.Random(13)
        receiver = SimReceiver(scenario.receiver.ids, scenario.target)
        strategy = make_strategy(
            name,
            WorkingSet(scenario.sender.ids),
            WorkingSet(scenario.receiver.ids),
            rng,
            correlation_estimate=correlation_estimate,
            symbols_desired=deficit,
        )
        result = simulate_p2p_transfer(receiver, strategy)
        status = "" if result.completed else "  (incomplete!)"
        print(f"{name:10s} {result.overhead:9.2f} {result.packets_sent:8d}{status}")
    print("\nRecode/BF should win: reconciled + recoded = informed delivery.")


def main():
    demo_coding()
    scenario, est = demo_sketches()
    demo_transfer(scenario, est)
    return 0


if __name__ == "__main__":
    sys.exit(main())
