"""Protocol sessions under the event clock.

:class:`~repro.protocol.session.TransferSession` runs the full
informed-delivery protocol (handshake, summaries, recoded streaming)
but is time-free: ``run()`` loops as fast as Python allows.  A
:class:`ScheduledSession` places that same protocol on a shared
:class:`~repro.sim.engine.EventScheduler`, pacing data packets by a
:class:`~repro.sim.links.ConstantRateLink`'s capacity so sessions, overlay
simulations, and scenario events advance on one clock and can be
compared in simulated time.

The protocol stream itself stays reliable — a digital fountain never
retransmits specific bytes; fresh encoded symbols substitute for lost
ones, as in the paper's prototype — but the *sending rate* need not be
open-loop.  With a :class:`~repro.transport.controller.
TransportController` installed, each pump window is additionally
capped by the controller's congestion window, and every packet's fate
is drawn from the link model: a delivered packet's ack returns after
the round trip (feeding the RTT estimator), a lost or queue-dropped packet's missing ack becomes an
rtx timeout and an ``on_loss`` signal.  Without a controller the
historical behaviour is bit-identical: the link model contributes only
*pacing* — a 2 pkt/tick session finishes in half the simulated time of
a 1 pkt/tick one, handshakes cost one propagation delay, and a
:class:`~repro.sim.stats.StatsRecorder` can capture the receiver's
progress as a time series.
"""

import random
from typing import List, Optional, Tuple

from repro.protocol.session import TransferSession
from repro.sim.engine import EventScheduler
from repro.sim.links import ConstantRateLink
from repro.sim.stats import StatsRecorder
from repro.transport.controller import TransportController

#: Default data-packet budget, in multiples of the receiver's recovery
#: target.  Spec-addressable: session scenarios derive their cap from
#: ``MeasurementSpec.max_packets`` when set, and from the
#: ``packet_budget_factor`` scenario param (times the target) when not
#: — this constant is only the last-resort default for hand-built
#: sessions.
DEFAULT_PACKET_BUDGET_FACTOR = 40


class ScheduledSession:
    """One protocol session paced by a link model on a shared clock.

    Args:
        scheduler: the shared event clock.
        session: the protocol session to drive (its ``clock`` is bound
            to the scheduler so its stats carry timestamps).
        link: capacity/latency model pacing the data stream.
        name: entity name for the stats recorder.
        stats: optional recorder capturing the receiver's symbol count
            and per-tick packet counts.
        max_packets: data-packet budget (default:
            :data:`DEFAULT_PACKET_BUDGET_FACTOR` × recovery target).
        transport: optional ``(controller, rng)``: a congestion
            controller gating each pump window, and the stream each
            packet's fate is drawn from (the link model decides it).
            ``None`` keeps the historical open-loop pacing
            bit-identically.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        session: TransferSession,
        link: ConstantRateLink,
        name: str = "session",
        stats: Optional[StatsRecorder] = None,
        max_packets: Optional[int] = None,
        transport: Optional[Tuple[TransportController, random.Random]] = None,
    ):
        self.scheduler = scheduler
        self.session = session
        session.clock = scheduler
        self.link = link
        self.name = name
        self.stats = stats
        target = session.receiver.params.recovery_target
        self.max_packets = (
            max_packets
            if max_packets is not None
            else DEFAULT_PACKET_BUDGET_FACTOR * target
        )
        self.transport, self.rng = transport or (None, None)
        self.packets_sent = 0
        self.finished = False
        self.accepted: Optional[bool] = None
        self._last_pump: Optional[float] = None
        self._pump_handle = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, delay: float = 0.0) -> "ScheduledSession":
        """Schedule the handshake after ``delay`` (+ one link latency)."""
        self.scheduler.schedule(delay + self.link.latency, self._handshake)
        return self

    def _handshake(self) -> None:
        self.accepted = self.session.handshake()
        if not self.accepted:
            self._finish()
            return
        self._last_pump = self.scheduler.now
        self._pump_handle = self.scheduler.schedule_every(1.0, self._pump)

    def _pump(self):
        """One pacing window: send as many packets as the link affords.

        Each packet is one :meth:`TransferSession.stream_step` — the
        same streaming bookkeeping ``run()`` uses, just rationed by the
        link's capacity (and, under a transport controller, by cwnd)
        instead of a tight loop.
        """
        if self.finished:
            return False
        now = self.scheduler.now
        assert self._last_pump is not None
        ctrl = self.transport
        budget = self.link.send_budget(self._last_pump, now, ctrl)
        self._last_pump = now
        receiver = self.session.receiver
        sent_this_pump = 0
        for _ in range(budget):
            if self.packets_sent >= self.max_packets:
                break
            if not self.session.stream_step():
                break  # decoded, or the sender genuinely drained
            self.packets_sent += 1
            sent_this_pump += 1
            if ctrl is not None:
                # The stream stays reliable (``stream_step`` already
                # delivered the symbol); the link draw decides only
                # what the sender learns — an ack, or a timeout.
                ctrl.on_transmit(
                    self.scheduler, self.link.transmit(self.rng), self.link.latency
                )
            if self.stats is not None:
                self.stats.count(now, self.name, "packets")
                self.stats.gauge(
                    now, self.name, "symbols", len(receiver.working_set)
                )
        if self._done() or self.packets_sent >= self.max_packets or (
            budget > 0 and sent_this_pump == 0
        ):
            self._finish()
            return False
        return None

    def _done(self) -> bool:
        return self.session.receiver.has_decoded

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        stats = self.session.stats
        stats.completed = self._done()
        stats.finished_at = self.scheduler.now
        if self._pump_handle is not None:
            self._pump_handle.cancel()


def run_sessions(
    scheduler: EventScheduler,
    sessions: List[ScheduledSession],
    max_time: float = 100_000.0,
) -> List[ScheduledSession]:
    """Drive scheduled sessions until all finish (or the clock cap hits)."""
    scheduler.run(
        until=max_time, stop_when=lambda: all(s.finished for s in sessions)
    )
    return sessions
