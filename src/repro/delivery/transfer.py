"""The transfer loop and the paper's Figure 5-8 metrics.

Three simulated settings, one round-robin loop
(:func:`simulate_multi_sender_transfer`):

* :func:`simulate_p2p_transfer` — one partial sender feeding one receiver
  (Figure 5), the loop's one-sender case.  Metric: **overhead**, packets
  sent divided by the number of useful symbols the receiver actually
  needed — 1.0 is the encoded-content baseline in which every packet is
  useful.
* :func:`simulate_multi_sender_transfer` with ``full_senders >= 1`` —
  partial sender(s) supplementing a full sender at equal rates
  (Figure 6).  Metric: **speedup** over the full sender alone.
* :func:`simulate_multi_sender_transfer` with ``full_senders == 0`` —
  parallel download purely from partial senders (Figures 7-8).  Metric:
  **relative rate** vs a single full sender.

A full sender owns the entire file and generates fresh encoded symbols at
will (Section 2.3's stateless encoding); every full-sender packet is a
new distinct symbol, which is exactly why it is the baseline: it delivers
one useful symbol per round, so baseline rounds = symbols the receiver
is missing.
"""

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.coding.symbol import FRESH_ID_BASE, FRESH_ID_STRIDE, Packet
from repro.delivery.receiver import SimReceiver
from repro.delivery.strategies import SenderStrategy


@dataclass
class TransferResult:
    """Outcome of one simulated transfer."""

    completed: bool
    rounds: int  # per-sender transmission slots elapsed
    packets_sent: int  # total packets across all senders
    useful_needed: int  # symbols the receiver was missing at the start
    receiver_final_count: int

    @property
    def overhead(self) -> float:
        """Packets per needed symbol (Figure 5's y-axis)."""
        if self.useful_needed == 0:
            return 0.0
        return self.packets_sent / self.useful_needed

    @property
    def speedup(self) -> float:
        """Baseline rounds / actual rounds (Figures 6-8's y-axes).

        The baseline is a lone full sender: one useful symbol per round,
        hence ``useful_needed`` rounds.
        """
        if self.rounds == 0:
            return float("inf") if self.useful_needed else 1.0
        return self.useful_needed / self.rounds


def simulate_p2p_transfer(
    receiver: SimReceiver,
    strategy: SenderStrategy,
    max_packets: Optional[int] = None,
) -> TransferResult:
    """Run a single sender until the receiver completes (Figure 5 loop).

    One sender's rounds are its packets, so this is
    :func:`simulate_multi_sender_transfer` over ``[strategy]``.

    Args:
        receiver: receiver state (consumed/mutated).
        strategy: the sender's packet-composition rule.
        max_packets: safety valve; ``None`` derives a generous cap from
            the target (coupon-collector runs need room to finish).
    """
    return simulate_multi_sender_transfer(
        receiver, [strategy], max_rounds=max_packets
    )


class FullSender:
    """A sender with the whole file: every packet is a fresh symbol.

    Fresh ids are drawn from outside the simulated distinct-symbol pool
    (full senders can mint encoding the system has never seen).
    """

    name = "Full"

    def __init__(self, fresh_id_start: int):
        self._ids = itertools.count(fresh_id_start)

    def next_packet(self) -> Packet:
        return Packet.encoded(next(self._ids))


def simulate_multi_sender_transfer(
    receiver: SimReceiver,
    strategies: Sequence[SenderStrategy],
    full_senders: int = 0,
    fresh_id_start: int = FRESH_ID_BASE,
    max_rounds: Optional[int] = None,
) -> TransferResult:
    """Round-robin senders at equal rates until the receiver completes.

    Each round, every sender (partial strategies first, then full
    senders) transmits one packet — the paper's "sends regular symbols at
    the same rate that the partial sender sends recoded symbols".

    Args:
        receiver: receiver state (mutated).
        strategies: partial senders' strategies.
        full_senders: number of full-content senders to add.
        fresh_id_start: id space reserved for full-sender fresh symbols;
            must not collide with scenario symbol ids.
        max_rounds: safety valve (default derived from the target).
    """
    if not strategies and full_senders == 0:
        raise ValueError("need at least one sender")
    needed = receiver.target - receiver.known_count
    if needed <= 0:
        return TransferResult(True, 0, 0, 0, receiver.known_count)
    if max_rounds is None:
        max_rounds = max(1000, 60 * receiver.target)
    senders = [sender.next_packet for sender in strategies]
    senders += [
        FullSender(fresh_id_start + i * FRESH_ID_STRIDE).next_packet
        for i in range(full_senders)
    ]
    receive = receiver.receive
    rounds = 0
    packets = 0
    complete = False
    while not complete and rounds < max_rounds:
        rounds += 1
        for next_packet in senders:
            packets += 1
            # Only a packet that recovered something can complete.
            if receive(next_packet()) and receiver.is_complete:
                complete = True
                break
    return TransferResult(
        completed=receiver.is_complete,
        rounds=rounds,
        packets_sent=packets,
        useful_needed=needed,
        receiver_final_count=receiver.known_count,
    )
