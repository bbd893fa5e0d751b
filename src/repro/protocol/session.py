"""Transfer sessions: the full protocol between two (or more) peers.

A session wires peers together in memory, runs the handshake, streams
data packets — a partial sender's from the :func:`~repro.delivery.
strategies.make_strategy` sender every scenario runs — and accounts
every byte.  :meth:`TransferSession.run` drives the loop to completion
or byte budget exhaustion.
"""

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.delivery.strategies import DEFAULT_DESIRED_MARGIN, make_strategy
from repro.delivery.strategies import RecodeSummaryStrategy, SenderStrategy
from repro.protocol.messages import DataMessage, RequestMessage
from repro.protocol.peer import ProtocolPeer
from repro.reconcile import CALLING_CARD, SummaryPolicy, build_summary
from repro.reconcile import correlation_from_summaries

#: Correlation above which a receiver should reject the sender outright
#: (Section 4's admission control: identical content offers nothing).
REJECT_CORRELATION = 0.98

#: Correlation above which shipping a Bloom summary pays for itself —
#: below this, oblivious recoding already wastes few packets.
SUMMARY_CORRELATION = 0.05


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
    #: Event-clock timestamps, populated when the session is bound to a
    #: simulated clock (see the ``clock`` constructor argument and
    #: :class:`repro.sim.sessions.ScheduledSession`).
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Simulated transfer time, when run under an event clock.

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


def _agreed_policy(sender: ProtocolPeer, receiver: ProtocolPeer) -> SummaryPolicy:
    """The one policy both peers carry (agreed off-line, like the code)."""
    if sender.summary_policy != receiver.summary_policy:
        raise ValueError(
            "sender and receiver carry different summary policies; "
            "peers must agree on the policy off-line (or pass an "
            "explicit summary_policy to the session)"
        )
    return sender.summary_policy


class TransferSession:
    """One sender serving one receiver with the informed protocol."""

    def __init__(
        self,
        sender: ProtocolPeer,
        receiver: ProtocolPeer,
        partitioned_rho: int = 0,
        *,
        rng: random.Random,
        clock=None,
        summary_policy: Optional[SummaryPolicy] = None,
    ):
        """Args:
            sender/receiver: the two peers (shared code parameters).
            partitioned_rho: when > 0, use the Section 5.2 "scaling up"
                pipeline — the receiver's summary is shipped one residue
                partition at a time, and the sender's useful domain grows
                as partitions arrive (for working sets too large to
                summarise in one message).  A Bloom-specific protocol:
                the session policy's kind must be ``bloom``, and its
                ``bits_per_element`` sizes every partition filter.
            rng: the partial sender's strategy's randomness source.
            clock: optional simulated clock (anything with a ``now``
                attribute, e.g. :class:`repro.sim.engine.EventScheduler`);
                when bound, the session stamps ``started_at`` and
                ``finished_at`` on its stats so event-driven drivers can
                report transfer durations.
            summary_policy: the :class:`~repro.reconcile.SummaryPolicy`
                governing both ends of this session, whatever policies
                the peer objects carry; omitted, the policy the two
                peers agree on (they must carry equal ones).
        """
        if sender.params != receiver.params:
            raise ValueError("peers must share code parameters")
        if partitioned_rho < 0:
            raise ValueError("partition count must be non-negative")
        summary_policy = summary_policy or _agreed_policy(sender, receiver)
        if partitioned_rho > 1 and summary_policy.kind != "bloom":
            raise ValueError(
                "partitioned_rho pipelines Bloom partition filters and "
                f"cannot run under a {summary_policy.kind!r} summary policy "
                "(the 'partitioned_bloom' summary kind ships exactly one "
                "partition)"
            )
        self.sender = sender
        self.receiver = receiver
        self.partitioned_rho = partitioned_rho
        self.summary_policy = summary_policy
        self.rng = rng
        self.clock = clock
        self.stats = SessionStats()
        #: The partial sender: the handshake's informed strategy, or an
        #: oblivious Recode rebuilt (drawing nothing) whenever the
        #: sender's set moved past ``_recode_at``.
        self._strategy: Optional[SenderStrategy] = None
        self._recode_at: Optional[int] = None
        #: Informed sessions: the domain ids the receiver still lacks.
        self._unheld: Optional[Set[int]] = None
        #: Pipelined mode: the receiver's ids at the handshake (every
        #: partition filter summarises it) and the ids partitions pulled.
        self._partition_ids: Optional[Set[int]] = None
        self._pulled: List[int] = []
        self._next_partition = 0
        self._next_finalize: Optional[int] = None

    # -- handshake ------------------------------------------------------------

    def handshake(self) -> bool:
        """Exchange calling cards; decide whether and how to proceed.

        Returns False if the receiver rejects the sender (identical
        content).  On success, a summary is shipped with the request when
        the estimated correlation warrants fine-grained reconciliation.
        """
        if self.clock is not None and self.stats.started_at is None:
            self.stats.started_at = self.clock.now
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
        # A hello charges its 8-byte header plus the carried card's own
        # honest size (see HelloMessage.wire_bytes).
        self.stats.control_bytes += (8 + card_r.wire_bytes()) + (
            8 + card_s.wire_bytes()
        )
        if self.sender.is_source:
            return None
        return correlation_from_summaries(card_s, card_r, self.sender.working_set)

    def _send_request(self) -> int:
        """Receiver states how many symbols it wants (Section 6.1)."""
        deficit = max(
            0, self.receiver.params.recovery_target - len(self.receiver.working_set)
        )
        desired = int(math.ceil(deficit * DEFAULT_DESIRED_MARGIN))
        self.stats.control_bytes += RequestMessage(symbols_desired=desired).wire_bytes()
        return desired

    def _receive_summary(self, desired: int) -> None:
        """Receiver ships its summary; the sender recodes over it.

        The summary is the *session's* policy's (the protocol-wide
        agreement), and the sender is ``make_strategy("Recode/BF", ...)``
        under it with the request as ``symbols_desired``: the filter,
        request-sized cut, partial-coverage exemption and blind fallback
        past an exact summary's bound are that function's.  An
        estimate-only policy (a min-wise summary, say) cannot filter, so
        nothing travels: the handshake's estimate is all there is.  With
        ``partitioned_rho`` set, partitions are pulled one at a time
        (:meth:`request_next_partition`) as the receiver drains them.
        """
        if self.partitioned_rho > 1:
            self._partition_ids = self.receiver.working_set.ids  # a copy
            self._unheld = set()
            self.request_next_partition()
            self.stats.used_summary = True
            return
        policy = self.summary_policy
        if not policy.can_filter:
            return
        # A summary message's wire size is the summary's own (see
        # SummaryMessage.wire_bytes); make_strategy reads the same object.
        ws = self.receiver.working_set
        self.stats.control_bytes += policy.summary_of(ws).wire_bytes()
        strategy = make_strategy(
            "Recode/BF", self.sender.working_set, ws, self.rng,
            symbols_desired=desired, summary_policy=policy,
        )
        if isinstance(strategy, RecodeSummaryStrategy):  # not blind
            self.stats.used_summary = True
            # A filter that left nothing makes the strategy blend the
            # whole set, and no such blend is useful.
            useful = strategy.filtered_out < len(self.sender.working_set)
            self._inform(strategy, strategy._domain if useful else ())

    def request_next_partition(self) -> bool:
        """Pull one more partition filter (pipelined summaries, §5.2).

        The sender then recodes over every id the partitions pulled so
        far.  Returns False when every partition has been consumed.
        """
        if self._partition_ids is None:
            return False
        if self._next_partition >= self.partitioned_rho:
            return False
        partition = build_summary(
            "partitioned_bloom",
            self._partition_ids,
            rho=self.partitioned_rho,
            beta=self._next_partition,
            # 8 = the bloom adapter's own default sizing.
            bits_per_element=self.summary_policy.params_dict().get(
                "bits_per_element", 8
            ),
            seed=17,
        )
        self._next_partition += 1
        # Charged like the one-shot summary: its wire size, header included.
        self.stats.control_bytes += partition.wire_bytes()
        pulled = partition.missing_from(self.sender.symbols)
        self._pulled.extend(pulled)
        if self._pulled:
            ws = self.sender.working_set
            self._inform(RecodeSummaryStrategy(ws, self._pulled, rng=self.rng), pulled)
        return True

    # -- transfer ---------------------------------------------------------------

    def _inform(self, strategy: SenderStrategy, ids) -> None:
        """Send from ``strategy``; count in the domain ``ids`` the receiver
        lacks."""
        held = self.receiver.working_set
        self._strategy = strategy
        self._unheld = (self._unheld or set()) | {i for i in ids if i not in held}

    def _drained(self) -> bool:
        """Whether the receiver holds every informed domain id."""
        return self._unheld is not None and not self._unheld

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

    def stream_step(self, try_finalize: bool = True) -> bool:
        """One step of the streaming loop; False when it cannot continue.

        The shared per-packet bookkeeping of :meth:`run` and of
        clock-paced drivers (:class:`repro.sim.sessions.
        ScheduledSession`): stop once the receiver decoded, pull the
        next summary partition when the recoding domain drains
        (pipelined mode, §5.2), transmit one packet, and — with
        ``try_finalize`` — attempt decode finalisation each time the
        working set grows past the next overhead step, retrying after
        ~1% more symbols when the Gaussian fallback comes up short.
        """
        if try_finalize and self.receiver.has_decoded:
            return False
        if self._drained():
            # Pipelined mode can pull another partition; otherwise
            # the sender genuinely has nothing useful left.
            if not self.request_next_partition() or self._drained():
                return False
        self.send_one()
        if try_finalize:
            target = self.receiver.params.recovery_target
            if self._next_finalize is None:
                self._next_finalize = target
            if len(self.receiver.working_set) >= self._next_finalize:
                if not self.receiver.try_finalize_decode():
                    self._next_finalize += max(1, target // 100)
        return True

    def run(
        self,
        max_packets: Optional[int] = None,
        until_decoded: bool = True,
    ) -> SessionStats:
        """Handshake then stream until the receiver decodes (or cap).

        Args:
            max_packets: data-packet budget (default: generous multiple
                of the recovery target).
            until_decoded: stop at full decode; False stops when the
                receiver merely reaches its recovery target of distinct
                symbols.
        """
        if not self.handshake():
            if self.clock is not None:
                self.stats.finished_at = self.clock.now
            return self.stats
        target = self.receiver.params.recovery_target
        if max_packets is None:
            max_packets = 40 * target
        sent = 0
        self._next_finalize = target
        while sent < max_packets:
            if not until_decoded and len(self.receiver.working_set) >= target:
                break
            if not self.stream_step(try_finalize=until_decoded):
                break
            sent += 1
        self.stats.completed = (
            self.receiver.has_decoded
            if until_decoded
            else len(self.receiver.working_set) >= target
        )
        if self.clock is not None:
            self.stats.finished_at = self.clock.now
        return self.stats
