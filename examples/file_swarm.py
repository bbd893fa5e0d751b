#!/usr/bin/env python3
"""Prototype protocol demo: a real-bytes swarm with verified decode.

Models the paper's prototype: one origin holding a file, a handful of
leechers exchanging *actual payloads* over in-memory sessions using the
full informed pipeline — 1KB min-wise handshakes, Bloom summaries,
recoded data packets with constituent lists in headers — and every
leecher byte-verifies its reconstruction at the end.

Run:  python examples/file_swarm.py
"""

import random
import sys

from repro.protocol import CodeParameters, ProtocolPeer, TransferSession

FILE_BYTES = 64 * 1400  # 64 blocks of the paper's 1400-byte payloads
NUM_LEECHERS = 4


def main():
    rng = random.Random(31)
    content = bytes(rng.randrange(256) for _ in range(FILE_BYTES))
    params = CodeParameters(num_blocks=64, block_size=1400, stream_seed=5)
    print(f"file: {len(content)} bytes in {params.num_blocks} blocks of "
          f"{params.block_size}B; recovery target {params.recovery_target} symbols\n")

    origin = ProtocolPeer("origin", params, content=content)
    leechers = [
        ProtocolPeer(f"leech{i}", params)
        for i in range(NUM_LEECHERS)
    ]

    # Phase 1: the origin seeds each leecher with a partial, staggered
    # slice — later arrivals get less (Section 2.1's asynchrony).
    print("phase 1: origin seeds partial content")
    seed_sessions = []
    for i, leech in enumerate(leechers):
        session = TransferSession(origin, leech, rng=random.Random(20 + i))
        assert session.handshake()
        fraction = 0.7 - 0.15 * i
        for _ in range(int(fraction * params.recovery_target)):
            session.send_one()
        seed_sessions.append(session)
        print(f"  {leech.peer_id}: {len(leech.working_set)} symbols "
              f"({fraction:.0%} seeded), decoded={leech.has_decoded}")

    # Phase 2: origin goes away; leechers finish from each other.
    print("\nphase 2: origin departs, leechers collaborate")
    total_control = sum(s.stats.control_bytes for s in seed_sessions)
    total_data = sum(s.stats.data_bytes for s in seed_sessions)
    round_robin = 0
    sessions = {}
    from_leechers = from_origin = 0
    # Recoded blends often resolve only on later packets, so one pass
    # without growth is no proof the leechers are drained: only a full
    # rotation through every other leecher is.
    stalled_passes = 0
    while not all(l.has_decoded for l in leechers):
        progressed = False
        for i, receiver in enumerate(leechers):
            if receiver.has_decoded:
                continue
            # Each other leecher in turn (offsets 1 .. N-1, never itself).
            offset = 1 + round_robin % (NUM_LEECHERS - 1)
            sender = leechers[(i + offset) % NUM_LEECHERS]
            round_robin += 1
            if len(sender.working_set) == 0:
                continue
            key = (sender.peer_id, receiver.peer_id)
            if key not in sessions:
                session = TransferSession(sender, receiver,
                                          rng=random.Random("->".join(key)))
                if not session.handshake():
                    sessions[key] = None
                    continue
                sessions[key] = session
            session = sessions[key]
            if session is None:
                continue
            before = len(receiver.working_set)
            for _ in range(8):  # a small burst per turn
                session.send_one()
            gained = len(receiver.working_set) - before
            from_leechers += gained
            progressed = progressed or gained > 0
            if len(receiver.working_set) >= params.recovery_target:
                receiver.try_finalize_decode()
        stalled_passes = 0 if progressed else stalled_passes + 1
        if stalled_passes >= NUM_LEECHERS - 1:
            # Peers have drained each other; one origin top-up round.
            for receiver in leechers:
                if receiver.has_decoded:
                    continue
                top_up = TransferSession(origin, receiver,
                                         rng=random.Random(99))
                top_up.handshake()
                before = len(receiver.working_set)
                while not receiver.has_decoded:
                    top_up.send_one()
                    if len(receiver.working_set) >= params.recovery_target:
                        receiver.try_finalize_decode()
                from_origin += len(receiver.working_set) - before
                total_control += top_up.stats.control_bytes
                total_data += top_up.stats.data_bytes
            break
    print(f"  symbols from leechers: {from_leechers}, "
          f"from the origin top-up: {from_origin}")

    for s in sessions.values():
        if s is not None:
            total_control += s.stats.control_bytes
            total_data += s.stats.data_bytes

    print("\nresults:")
    all_ok = True
    for leech in leechers:
        ok = (leech.has_decoded
              and leech.decoded_content(len(content)) == content)
        all_ok &= ok
        print(f"  {leech.peer_id}: decoded={leech.has_decoded}, "
              f"bytes verified={'✓' if ok else '✗'}")
    ctrl_frac = total_control / (total_control + total_data)
    print(f"\nwire totals: {total_data} data bytes, {total_control} control "
          f"bytes ({ctrl_frac:.2%} control overhead)")
    if not all_ok:
        print("VERIFICATION FAILED")
        return 1
    if from_leechers == 0:
        print("PHASE 2 FAILED: no symbol moved between leechers")
        return 1
    print("every leecher reconstructed the exact file bytes ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
