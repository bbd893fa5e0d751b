"""The per-connection link of the event engine.

:class:`ConstantRateLink` is the one link class.  It answers two
questions for the simulator:

* :meth:`~ConstantRateLink.send_budget` — how many whole packets a
  sender may put on the wire in a time window.  Fractional capacity is
  carried as credit between windows (never negative, floored with an
  epsilon so ten windows of 0.1 pkt really yield one packet); when a
  :class:`~repro.transport.controller.TransportController` paces the
  connection, the same step runs its timeout scan (only once one can be
  due) and caps the budget by its window.  It is the one step per
  connection per window that the overlay's delivery pass and a
  scheduled session's pump both take; ``packet_budget`` is the step
  without a controller;
* :meth:`~ConstantRateLink.transmit` — per packet, is it lost, and if
  not, after what delay does it arrive.

Its options cover every link the specs build: Bernoulli loss, a fixed
latency, uniform ``jitter`` around it, and a shared bottleneck
``queue`` (:class:`~repro.transport.queue.BottleneckQueue`) the
surviving packets cross.  With zero latency and no jitter or queue it
is exactly the legacy tick simulator's connection (one RNG draw per
packet).  :class:`GilbertElliottLink` is the same link with bursty loss
from a two-state Markov chain; chains may be shared across links to
model correlated loss (e.g. a congested inter-region trunk).  A custom
link subclasses :class:`ConstantRateLink` and overrides
``send_budget`` (capping what it grants with ``ctrl.allowance(t1,
budget)`` when given a controller) and ``transmit``.
"""

import math
import random
from math import floor
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.transport.controller import TransportController
    from repro.transport.queue import BottleneckQueue

#: Floor tolerance for fractional-credit accumulation: absorbs binary
#: float representation error (0.1 summed ten times) without ever
#: minting a packet more than 1e-9 early.
CREDIT_EPS = 1e-9


def drain_credit(credit: float, capacity: float) -> "tuple[int, float]":
    """Add ``capacity`` to ``credit`` and split off whole packets.

    The one fractional-bandwidth rule everywhere: credit is clamped at
    zero (a stalled window never charges the future) and floored with
    :data:`CREDIT_EPS` so the packet sequence is exactly periodic for
    rational rates.  Returns ``(whole_packets, remaining_credit)``.
    """
    credit += capacity
    if credit < 0.0:
        credit = 0.0
    whole = floor(credit + CREDIT_EPS)
    credit -= whole
    return whole, (credit if credit > 0.0 else 0.0)


def _check_finite(name: str, value: float) -> None:
    """Refuse a negative, NaN or infinite link argument, naming it: a NaN
    rate or latency would otherwise surface only mid-run (a ValueError in
    ``packet_budget``, an arrival scheduled at a NaN delay)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


class ConstantRateLink:
    """One connection's link: fixed rate, loss, latency, optional jitter
    and an optional shared bottleneck queue.

    Args:
        rate: packets per time unit.
        loss_rate: independent per-packet loss probability, in [0, 1).
        latency: base propagation delay.
        jitter: arrival delay is ``latency + U(-jitter, +jitter)``
            clamped to zero (0 = a fixed delay); out-of-order arrival is
            possible (and intended) when jitter exceeds the packet
            spacing.
        queue: a :class:`~repro.transport.queue.BottleneckQueue` every
            packet that survives the wire also crosses, picking up its
            sojourn time or being tail-dropped.
    """

    def __init__(
        self,
        rate: float,
        loss_rate: float = 0.0,
        latency: float = 0.0,
        jitter: float = 0.0,
        queue: Optional["BottleneckQueue"] = None,
    ):
        _check_finite("rate", rate)
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must lie in [0, 1)")
        _check_finite("latency", latency)
        _check_finite("jitter", jitter)
        self.rate = rate
        self.loss_rate = loss_rate
        self.latency = latency
        self.jitter = jitter
        self.queue = queue
        #: The Gilbert-Elliott chain deciding loss in place of
        #: ``loss_rate`` (set by :class:`GilbertElliottLink`), stepped
        #: per packet when ``step_per_packet``.
        self.process: Optional[GilbertElliottProcess] = None
        self.step_per_packet = False
        self._credit = 0.0

    def send_budget(
        self, t0: float, t1: float, ctrl: Optional["TransportController"] = None
    ) -> int:
        """Packets a sender may put on the wire in ``[t0, t1)``: the
        credit step (:func:`drain_credit` over ``rate * (t1 - t0)``),
        then under ``ctrl`` what ``ctrl.allowance(t1, whole)`` allows.

        The allowance (timeout scan, then window cap) runs only once
        ``t1`` reaches the controller's earliest rtx deadline; before
        that no timeout can be due and only the window cap
        (:meth:`~repro.transport.controller.TransportController.
        window_cap`) applies.  Without ``ctrl`` this is
        :meth:`packet_budget`.
        """
        if t1 < t0:
            raise ValueError("window must run forward")
        whole, self._credit = drain_credit(self._credit, self.rate * (t1 - t0))
        if ctrl is None:
            return whole
        if t1 >= ctrl.rtx.next_deadline:
            return ctrl.allowance(t1, whole)
        return ctrl.window_cap(whole) if whole else 0

    #: Whole packets transmittable in ``[t0, t1)``, carrying credit
    #: (:func:`drain_credit`): :meth:`send_budget` with no controller.
    packet_budget = send_budget

    def transmit(self, rng: random.Random) -> Optional[float]:
        """Fate of one packet: None if lost, else its arrival delay.

        The draws are fixed per call so seeded runs replay exactly: a
        private loss chain's step, then always one loss draw (even at
        loss 0 — tick parity depends on it), then one jitter draw when
        ``jitter`` is nonzero.  The queue draws nothing.
        """
        process = self.process
        if process is None:
            loss = self.loss_rate
        else:
            if self.step_per_packet:
                process.step(rng)
            loss = process.current_loss_rate
        if rng.random() < loss:
            return None
        delay = self.latency
        if self.jitter:
            delay = max(0.0, delay + rng.uniform(-self.jitter, self.jitter))
        if self.queue is not None:
            sojourn = self.queue.enqueue()
            if sojourn is None:
                return None
            delay += sojourn
        return delay


class GilbertElliottProcess:
    """The two-state loss chain behind Gilbert-Elliott links.

    A chain may be owned by one link (stepped per packet) or shared by
    many (stepped by a scheduled event), in which case every sharing
    link sees the same good/bad phase — correlated regional loss.
    """

    def __init__(
        self,
        p_good_bad: float,
        p_bad_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.5,
    ):
        for name, p in (("p_good_bad", p_good_bad), ("p_bad_good", p_bad_good)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        for name, p in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        self.p_good_bad = p_good_bad
        self.p_bad_good = p_bad_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False
        # Burst bookkeeping: step counts, completed bad bursts, and the
        # running length of the burst in progress.  Observation only —
        # attaching stats never changes the chain's RNG draws.
        self.steps = 0
        self.bad_steps = 0
        self.bursts = 0
        self.burst_steps_total = 0
        self.longest_burst = 0
        self._burst_len = 0
        self._stats = None
        self._stats_entity = "loss"
        self._clock = None

    def attach_stats(self, stats, entity: str = "loss", clock=None) -> None:
        """Record the chain's state and realized bursts as stats series.

        Each step emits a ``bad_state`` gauge (1.0 in the bad phase);
        each completed bad burst emits its length as a ``burst_length``
        gauge.  ``clock`` (anything with ``.now``) timestamps the
        series; without one, the step counter is the time axis.
        """
        self._stats = stats
        self._stats_entity = entity
        self._clock = clock

    def _stats_now(self) -> float:
        return float(self.steps) if self._clock is None else self._clock.now

    def step(self, rng: random.Random) -> None:
        """Advance the chain one transition."""
        self.steps += 1
        was_bad = self.bad
        if self.bad:
            if rng.random() < self.p_bad_good:
                self.bad = False
        elif rng.random() < self.p_good_bad:
            self.bad = True
        if self.bad:
            self.bad_steps += 1
            self._burst_len += 1
        elif was_bad:
            self._end_burst()
        if self._stats is not None:
            self._stats.gauge(
                self._stats_now(),
                self._stats_entity,
                "bad_state",
                1.0 if self.bad else 0.0,
            )

    def _end_burst(self) -> None:
        length = self._burst_len
        self._burst_len = 0
        if length <= 0:
            return
        self.bursts += 1
        self.burst_steps_total += length
        self.longest_burst = max(self.longest_burst, length)
        if self._stats is not None:
            self._stats.gauge(
                self._stats_now(), self._stats_entity, "burst_length", float(length)
            )

    @property
    def current_loss_rate(self) -> float:
        return self.loss_bad if self.bad else self.loss_good

    @property
    def mean_burst_length(self) -> float:
        """Mean completed-burst length; approaches 1/p_bad_good."""
        return self.burst_steps_total / self.bursts if self.bursts else 0.0

    @property
    def empirical_loss_rate(self) -> float:
        """Realized long-run loss mixture over the stepped history."""
        if not self.steps:
            return self.current_loss_rate
        frac_bad = self.bad_steps / self.steps
        return frac_bad * self.loss_bad + (1.0 - frac_bad) * self.loss_good

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run loss rate: the chain's stationary mixture."""
        pi_bad = self.p_good_bad / (self.p_good_bad + self.p_bad_good)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good


class GilbertElliottLink(ConstantRateLink):
    """Constant-rate link with bursty (Gilbert-Elliott) loss.

    ``loss_rate`` reads the chain's ``stationary_loss_rate``; assigning
    it steers nothing, since the chain decides every packet's fate.

    Args:
        rate: packets per time unit.
        process: an existing chain to share, stepped by its owner;
            when None a private chain is built from the
            ``p_*``/``loss_*`` arguments and stepped once per packet.
        queue: as for :class:`ConstantRateLink`.
    """

    def __init__(
        self,
        rate: float,
        p_good_bad: float = 0.05,
        p_bad_good: float = 0.3,
        loss_good: float = 0.0,
        loss_bad: float = 0.5,
        latency: float = 0.0,
        process: Optional[GilbertElliottProcess] = None,
        queue: Optional["BottleneckQueue"] = None,
    ):
        super().__init__(rate, latency=latency, queue=queue)
        self.step_per_packet = process is None
        if process is None:
            process = GilbertElliottProcess(
                p_good_bad, p_bad_good, loss_good, loss_bad
            )
        self.process = process
        self.loss_rate = process.stationary_loss_rate
