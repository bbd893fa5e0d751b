"""Transfer sessions: the full protocol between two peers.

A session wires two peers together in memory, runs the handshake,
streams data packets — a partial sender's from the :func:`~repro.
delivery.strategies.make_strategy` sender every scenario runs — and
accounts every byte.  :class:`repro.sim.sessions.ScheduledSession`
drives it on the event clock, one :meth:`TransferSession.stream_step`
per packet the link affords; a caller may also step it by hand
(:meth:`~TransferSession.handshake`, then
:meth:`~TransferSession.send_one`).
"""

import math
import random
from dataclasses import dataclass
from typing import Optional, Set

from repro.delivery.strategies import DEFAULT_DESIRED_MARGIN, make_strategy
from repro.delivery.strategies import RecodeSummaryStrategy, SenderStrategy
from repro.protocol.messages import DataMessage
from repro.protocol.peer import ProtocolPeer
from repro.reconcile import CALLING_CARD, DEFAULT_POLICY, SummaryPolicy
from repro.reconcile import correlation_from_summaries

#: Correlation above which a receiver should reject the sender outright
#: (Section 4's admission control: identical content offers nothing).
REJECT_CORRELATION = 0.98

#: Correlation above which shipping a Bloom summary pays for itself —
#: below this, oblivious recoding already wastes few packets.
SUMMARY_CORRELATION = 0.05

#: A hello's header: the sender's 8-byte working-set size, ahead of the
#: calling card it carries (the card charges its own wire size).
HELLO_HEADER_BYTES = 8

#: A request: the 4-byte count of symbols the receiver wants (§6.1).
REQUEST_BYTES = 4


@dataclass
class SessionStats:
    """Byte and packet accounting for one session."""

    control_bytes: int = 0
    data_bytes: int = 0
    data_packets: int = 0
    useful_packets: int = 0
    rejected: bool = False
    used_summary: bool = False
    estimated_correlation: float = 0.0
    completed: bool = False
    #: Event-clock timestamps, stamped by the driving
    #: :class:`repro.sim.sessions.ScheduledSession` at its handshake and
    #: its finish (a session stepped by hand stays unstamped).
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Simulated transfer time, when driven on an event clock.

        None until both endpoints are stamped; an instantaneous finish
        (a rejection in the handshake event itself) is 0.0, and a
        clock that was rewound between stamps can never yield a
        negative duration.
        """
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    @property
    def control_fraction(self) -> float:
        """Control overhead as a fraction of total bytes, in [0, 1].

        0.0 when no bytes moved at all (a session that never ran its
        handshake), 1.0 for a rejected handshake (all control, no
        data).
        """
        total = self.control_bytes + self.data_bytes
        if total <= 0:
            return 0.0
        return min(1.0, max(0.0, self.control_bytes / total))

    def to_dict(self) -> dict:
        """The JSON shape shared by ``RunResult.to_dict`` and benchmarks."""
        return {
            "control_bytes": self.control_bytes,
            "data_bytes": self.data_bytes,
            "data_packets": self.data_packets,
            "useful_packets": self.useful_packets,
            "rejected": self.rejected,
            "used_summary": self.used_summary,
            "estimated_correlation": self.estimated_correlation,
            "completed": self.completed,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration": self.duration,
            "control_fraction": self.control_fraction,
        }


class TransferSession:
    """One sender serving one receiver with the informed protocol."""

    def __init__(
        self,
        sender: ProtocolPeer,
        receiver: ProtocolPeer,
        *,
        rng: random.Random,
        summary_policy: SummaryPolicy = DEFAULT_POLICY,
    ):
        """Args:
            sender/receiver: the two peers (shared code parameters).
            rng: the partial sender's strategy's randomness source.
            summary_policy: the :class:`~repro.reconcile.SummaryPolicy`
                whose summary the receiver ships: the session's
                agreement, like the code parameters the peers share.
        """
        if sender.params != receiver.params:
            raise ValueError("peers must share code parameters")
        self.sender = sender
        self.receiver = receiver
        self.summary_policy = summary_policy
        self.rng = rng
        self.stats = SessionStats()
        #: The partial sender: the handshake's informed strategy, or an
        #: oblivious Recode rebuilt (drawing nothing) whenever the
        #: sender's set moved past ``_recode_at``.
        self._strategy: Optional[SenderStrategy] = None
        self._recode_at: Optional[int] = None
        #: Informed sessions: the domain ids the receiver still lacks.
        self._unheld: Optional[Set[int]] = None
        self._next_finalize = receiver.params.recovery_target

    # -- handshake ------------------------------------------------------------

    def handshake(self) -> bool:
        """Exchange calling cards; decide whether and how to proceed.

        Returns False if the receiver rejects the sender (identical
        content).  On success, a summary is shipped with the request when
        the estimated correlation warrants fine-grained reconciliation.
        """
        corr = self._exchange_hellos()
        if corr is not None:
            self.stats.estimated_correlation = corr
            if corr >= REJECT_CORRELATION and len(self.sender.working_set) <= len(
                self.receiver.working_set
            ):
                self.stats.rejected = True
                return False
        desired = self._send_request()
        if corr is not None and corr >= SUMMARY_CORRELATION:
            self._receive_summary(desired)
        return True

    def _exchange_hellos(self):
        """Exchange calling cards, charge their bytes, estimate correlation.

        Returns the sender's ``|S ∩ R| / |S|`` estimate, or None when
        the sender is a source (nothing to estimate against).  Both
        cards are :data:`~repro.reconcile.CALLING_CARD` — the one card
        every peer agrees on off-line, whatever the summary policy — and
        the very cards whose bytes were charged feed the estimate.
        """
        card_r = CALLING_CARD.summary_of(self.receiver.working_set)
        card_s = CALLING_CARD.summary_of(self.sender.working_set)
        self.stats.control_bytes += (HELLO_HEADER_BYTES + card_r.wire_bytes()) + (
            HELLO_HEADER_BYTES + card_s.wire_bytes()
        )
        if self.sender.is_source:
            return None
        return correlation_from_summaries(card_s, card_r, self.sender.working_set)

    def _send_request(self) -> int:
        """Receiver states how many symbols it wants (Section 6.1)."""
        deficit = max(
            0, self.receiver.params.recovery_target - len(self.receiver.working_set)
        )
        self.stats.control_bytes += REQUEST_BYTES
        return int(math.ceil(deficit * DEFAULT_DESIRED_MARGIN))

    def _receive_summary(self, desired: int) -> None:
        """Receiver ships its summary; the sender recodes over it.

        The summary is the session's policy's, charged at its own wire
        size, and the sender is ``make_strategy("Recode/BF", ...)``
        under it with the request as ``symbols_desired``: the filter,
        request-sized cut, partial-coverage exemption and blind fallback
        past an exact summary's bound are that function's.  An
        estimate-only policy (a min-wise summary, say) cannot filter, so
        nothing travels: the handshake's estimate is all there is.
        """
        policy = self.summary_policy
        if not policy.can_filter:
            return
        # make_strategy reads the very summary whose bytes are charged.
        ws = self.receiver.working_set
        self.stats.control_bytes += policy.summary_of(ws).wire_bytes()
        strategy = make_strategy(
            "Recode/BF", self.sender.working_set, ws, self.rng,
            symbols_desired=desired, summary_policy=policy,
        )
        if isinstance(strategy, RecodeSummaryStrategy):  # not blind
            self.stats.used_summary = True
            self._strategy = strategy
            # A filter that left nothing makes the strategy blend the
            # whole set, and no such blend is useful.
            if strategy.filtered_out < len(self.sender.working_set):
                self._unheld = {i for i in strategy._domain if i not in ws}
            else:
                self._unheld = set()

    # -- transfer ---------------------------------------------------------------

    def send_one(self) -> DataMessage:
        """Sender composes and transmits one data packet."""
        if self.sender.is_source:
            msg = self.sender.fresh_data()
        else:
            ws, rws = self.sender.working_set, self.receiver.working_set
            stale = self._unheld is None and self._recode_at != ws.version
            if stale or self._strategy is None:
                self._recode_at = ws.version
                self._strategy = make_strategy("Recode", ws, rws, self.rng)
            msg = self.sender.data_for(self._strategy.next_packet())
        self.stats.data_packets += 1
        self.stats.data_bytes += msg.wire_bytes()
        recovered = self.receiver.receive_data(msg)
        if recovered:
            self.stats.useful_packets += 1
            if self._unheld:  # the count follows this session's deliveries
                self._unheld.difference_update(recovered)
        return msg

    def stream_step(self) -> bool:
        """One step of the streaming loop; False when it cannot continue.

        Stop once the receiver decoded, or once an informed sender's
        domain holds nothing the receiver lacks; else transmit one
        packet, and attempt decode finalisation each time the working
        set grows past the next overhead step, retrying after ~1% more
        symbols when the Gaussian fallback comes up short.
        """
        receiver = self.receiver
        if receiver.has_decoded:
            return False
        if self._unheld is not None and not self._unheld:
            return False  # the informed domain is drained
        self.send_one()
        if len(receiver.working_set) >= self._next_finalize:
            if not receiver.try_finalize_decode():
                self._next_finalize += max(1, receiver.params.recovery_target // 100)
        return True
