"""Differential pin for the one packet type.

The digest was recorded at PR 23, where a transmission was spelt three
ways (``delivery.packets.Packet``, ``RecodedSymbol``, ``DataMessage``)
and the two id-level receivers each re-wrapped a recoded packet before
the peeler saw it.  It covers what every legend strategy composes and
what both receivers recover from it, so merging the types moved no RNG
draw and changed no peel.
"""

import hashlib
import random

from repro.delivery import (
    STRATEGY_NAMES,
    SimReceiver,
    make_pair_scenario,
    make_strategy,
)
from repro.overlay import OverlayNode, OverlaySimulator

PIN = "96f5ed7dcac63c9b6376775d7c9c72ec2a95aca67f3152f04a853939eeb65711"


def _digest() -> str:
    h = hashlib.sha256()
    sim = OverlaySimulator(rng=random.Random(0))
    for name in STRATEGY_NAMES:
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            layout = make_pair_scenario(300, 1.1, 0.3, rng)
            strategy = make_strategy(
                name, layout.sender, layout.receiver, rng,
                symbols_desired=layout.target - len(layout.receiver),
            )
            packets = [strategy.next_packet() for _ in range(500)]
            receiver = SimReceiver(layout.receiver.ids, layout.target)
            node = OverlayNode("r", layout.target, layout.receiver.ids)
            log = []
            for packet in packets:
                stamp = node.working_set.version
                useful = sim._deliver(node, packet)
                log.append((
                    packet.symbol_id,
                    sorted(packet.constituent_ids),
                    receiver.receive(packet),
                    useful,
                    node.working_set.added_since(stamp),
                ))
            state = (
                name, seed, log,
                receiver.useless_packets, len(receiver._peeler._pending_constituents),
                node.peeler.recoded_received, node.peeler.recoded_useless,
            )
            h.update(repr(state).encode())
    return h.hexdigest()


def test_packet_stream_and_recoveries_match_the_three_type_parent():
    assert _digest() == PIN
