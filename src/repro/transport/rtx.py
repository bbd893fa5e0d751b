"""Timeout-driven loss recovery for coded streams.

:class:`RtxManager` tracks in-flight sequence numbers against an
adaptive retransmission timeout (the classic Jacobson/Karels SRTT /
RTTVAR estimator).  In a digital-fountain system a timed-out packet is
not retransmitted byte-for-byte — fresh encoded symbols substitute for
lost ones — so expiry here *frees window space and signals the
congestion policy* rather than queueing a specific segment.  That
matches the paper's prototype, where the stream itself is loss-
tolerant and only the sending rate needs to react.
"""

import math
from typing import Dict, List, Tuple

__all__ = ["RtxManager"]


class RtxManager:
    """Adaptive-RTO tracking of in-flight packets.

    ``next_deadline`` is a lower bound on the earliest deadline still
    outstanding (``math.inf`` when nothing is): :meth:`track` lowers it,
    a scan in :meth:`expire` recomputes it exactly, and :meth:`ack`
    sets it to ``math.inf`` when it empties the table and otherwise
    leaves it alone — an acked packet can only make the bound loose,
    never wrong.  While ``now`` is below it no timeout can be due, so
    :meth:`expire` returns ``[]`` without scanning the table and a
    caller may skip the call altogether.

    Args:
        rto_min / rto_max: clamp bounds for the retransmission timeout,
            in simulated time units.  Until the first RTT sample the
            RTO sits at ``2 * rto_min`` (clamped).
    """

    def __init__(self, rto_min: float = 2.0, rto_max: float = 64.0):
        # A NaN bound would compare false everywhere: a NaN rto_max makes
        # the RTO NaN, so no tracked packet ever expires.
        if not (math.isfinite(rto_min) and rto_min > 0.0):
            raise ValueError(f"rto_min must be finite and positive, got {rto_min!r}")
        if not (math.isfinite(rto_max) and rto_max >= rto_min):
            raise ValueError(
                f"rto_max must be finite and >= rto_min, got {rto_max!r}"
            )
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.rto = min(rto_max, 2.0 * rto_min)
        #: seq -> (sent_at, deadline)
        self._outstanding: Dict[int, Tuple[float, float]] = {}
        self.next_deadline = math.inf

    # -- tracking -----------------------------------------------------------

    def track(self, seq: int, now: float) -> None:
        """Register a just-sent packet; its deadline is fixed at send time."""
        deadline = now + self.rto
        self._outstanding[seq] = (now, deadline)
        if deadline < self.next_deadline:
            self.next_deadline = deadline

    def ack(self, seq: int) -> "float | None":
        """Acknowledge ``seq``; returns its send time, or None if it
        already timed out (a late ack carries no information)."""
        entry = self._outstanding.pop(seq, None)
        if entry is None:
            return None
        if not self._outstanding:
            # Nothing left to time out: no expire scan is due.
            self.next_deadline = math.inf
        return entry[0]

    def expire(self, now: float) -> List[Tuple[int, float]]:
        """Pop every packet whose deadline passed, in send order:
        ``[(seq, sent_at)]``.  Below ``next_deadline`` nothing can be
        due and the table is not scanned."""
        if now < self.next_deadline:
            return []
        outstanding = self._outstanding
        expired = []
        earliest = math.inf
        for seq, (sent_at, deadline) in outstanding.items():
            if deadline <= now:
                expired.append((seq, sent_at))
            elif deadline < earliest:
                earliest = deadline
        for seq, _ in expired:
            del outstanding[seq]
        self.next_deadline = earliest
        return expired

    # -- RTT estimation -----------------------------------------------------

    def observe_rtt(self, rtt: float) -> None:
        """Fold one RTT sample into SRTT/RTTVAR and refresh the RTO."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(
            self.rto_max, max(self.rto_min, self.srtt + 4.0 * self.rttvar)
        )
