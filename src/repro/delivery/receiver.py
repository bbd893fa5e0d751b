"""Receiver state for delivery simulations.

A :class:`~repro.coding.peeler.RecodedPeeler` holds the distinct
encoded symbols (the one copy of them) and peels recoded arrivals; the
receiver adds packet counters and completion against a target count
that already includes decoding overhead (Section 6.1 simulates "a
constant decoding overhead of 7%").
"""

from typing import Iterable, List

from repro.coding.peeler import RecodedPeeler
from repro.coding.symbol import Packet

#: The paper's simplifying assumption (Section 6.1).
DEFAULT_DECODING_OVERHEAD = 0.07


class SimReceiver:
    """A downloading peer: a recoded-symbol peeler and a target.

    Args:
        initial_ids: encoded-symbol ids held at transfer start (any
            iterable; copied once, into the peeler).
        target: distinct encoded symbols needed to recover the file
            (decoding overhead included by the caller).

    Attributes:
        packets_received: total packets consumed.
        useless_packets: packets that contributed no new symbol
            immediately (pending recodes count until they resolve).
    """

    def __init__(self, initial_ids: Iterable[int], target: int):
        if target < 1:
            raise ValueError("target must be positive")
        self._peeler = RecodedPeeler(known_ids=initial_ids)
        self.target = target
        self.packets_received = 0
        self.useless_packets = 0

    # -- status -----------------------------------------------------------

    @property
    def known_count(self) -> int:
        """Distinct encoded symbols currently held; O(1)."""
        return self._peeler.known_count

    @property
    def known_ids(self):
        """Ids currently held.

        A copy, O(n): use :attr:`known_count` / :attr:`is_complete` on
        per-packet paths.
        """
        return self._peeler.known_ids

    @property
    def is_complete(self) -> bool:
        """True once enough distinct symbols are held to decode."""
        return self.known_count >= self.target

    @property
    def pending_recoded(self) -> int:
        """Recoded symbols buffered but not yet reducible."""
        return self._peeler.pending_count

    # -- ingest --------------------------------------------------------------

    def receive(self, packet: Packet) -> List[int]:
        """Consume one packet; returns encoded ids newly recovered."""
        self.packets_received += 1
        recovered = self._peeler.receive(packet)
        if not recovered:
            self.useless_packets += 1
        return recovered
