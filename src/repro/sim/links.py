"""Pluggable per-connection link models for the event engine.

A :class:`LinkModel` answers two questions for the simulator:

* :meth:`~LinkModel.packet_budget` — how many whole packets fit in a
  time window, with fractional capacity carried as credit between
  windows (never negative, floored with an epsilon so ten windows of
  0.1 pkt really yield one packet);
* :meth:`~LinkModel.transmit` — per packet, is it lost, and if not,
  after what propagation delay does it arrive.

Models:

* :class:`ConstantRateLink` — fixed rate, Bernoulli loss, fixed
  latency.  With zero latency this is exactly the legacy tick
  simulator's connection behaviour (one RNG draw per packet).
* :class:`LatencyJitterLink` — constant rate plus uniform jitter
  around a base propagation delay.
* :class:`GilbertElliottLink` — two-state Markov (good/bad) bursty
  loss; chains may be shared across links to model correlated loss
  (e.g. a congested inter-region trunk).
* :class:`TraceBandwidthLink` — piecewise-constant bandwidth replayed
  from a trace, in the style of trace-driven network simulators.
"""

import bisect
import math
import random
from typing import Optional, Sequence

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
    whole = int(math.floor(credit + CREDIT_EPS))
    return whole, max(0.0, credit - whole)


def _check_finite(name: str, value: float) -> None:
    """Refuse a negative, NaN or infinite link argument, naming it: a NaN
    rate or latency would otherwise surface only mid-run (a ValueError in
    ``packet_budget``, an arrival scheduled at a NaN delay)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


class LinkModel:
    """Base class: capacity and loss/latency behaviour of one link."""

    def __init__(self, latency: float = 0.0):
        _check_finite("latency", latency)
        self.latency = latency
        self._credit = 0.0

    # -- capacity -----------------------------------------------------------

    def capacity_between(self, t0: float, t1: float) -> float:
        """Fractional packet capacity of the window ``[t0, t1)``."""
        raise NotImplementedError

    def packet_budget(self, t0: float, t1: float) -> int:
        """Whole packets transmittable in ``[t0, t1)``, carrying credit.

        Credit is clamped at zero (a stalled or degraded window can
        never charge the future) and floored with :data:`CREDIT_EPS`
        so the sequence is exactly periodic for rational rates.
        """
        if t1 < t0:
            raise ValueError("window must run forward")
        whole, self._credit = drain_credit(
            self._credit, self.capacity_between(t0, t1)
        )
        return whole

    # -- per-packet fate ----------------------------------------------------

    def transmit(self, rng: random.Random) -> Optional[float]:
        """Fate of one packet: None if lost, else its arrival delay.

        Implementations must draw from ``rng`` a deterministic number
        of times per call so seeded runs replay exactly.
        """
        raise NotImplementedError


class ConstantRateLink(LinkModel):
    """Fixed rate, independent Bernoulli loss, fixed propagation delay."""

    def __init__(self, rate: float, loss_rate: float = 0.0, latency: float = 0.0):
        _check_finite("rate", rate)
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must lie in [0, 1)")
        super().__init__(latency)
        self.rate = rate
        self.loss_rate = loss_rate

    def capacity_between(self, t0: float, t1: float) -> float:
        return self.rate * (t1 - t0)

    def transmit(self, rng: random.Random) -> Optional[float]:
        # Always one draw, even at loss_rate 0 — tick-parity depends on
        # the legacy simulator's RNG consumption pattern.
        if rng.random() < self.loss_rate:
            return None
        return self.latency


class LatencyJitterLink(ConstantRateLink):
    """Constant rate with uniform jitter around the base latency.

    Arrival delay is ``latency + U(-jitter, +jitter)`` clamped to zero;
    out-of-order arrival is possible (and intended) when jitter exceeds
    the packet spacing.
    """

    def __init__(
        self,
        rate: float,
        latency: float,
        jitter: float,
        loss_rate: float = 0.0,
    ):
        _check_finite("jitter", jitter)
        super().__init__(rate, loss_rate, latency)
        self.jitter = jitter

    def transmit(self, rng: random.Random) -> Optional[float]:
        if rng.random() < self.loss_rate:
            return None
        if self.jitter == 0.0:
            return self.latency
        return max(0.0, self.latency + rng.uniform(-self.jitter, self.jitter))


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
        start_bad: bool = False,
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
        self.bad = start_bad
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


class GilbertElliottLink(LinkModel):
    """Constant-rate link with bursty (Gilbert-Elliott) loss.

    Args:
        rate: packets per time unit.
        process: an existing chain to share; when None a private chain
            is built from the ``p_*``/``loss_*`` arguments and stepped
            once per packet.
        step_per_packet: step the chain on each transmit (private-chain
            default).  Pass False for shared chains stepped externally.
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
        step_per_packet: Optional[bool] = None,
    ):
        _check_finite("rate", rate)
        super().__init__(latency)
        self.rate = rate
        if process is None:
            process = GilbertElliottProcess(
                p_good_bad, p_bad_good, loss_good, loss_bad
            )
            if step_per_packet is None:
                step_per_packet = True
        elif step_per_packet is None:
            step_per_packet = False
        self.process = process
        self.step_per_packet = step_per_packet

    def capacity_between(self, t0: float, t1: float) -> float:
        return self.rate * (t1 - t0)

    @property
    def stationary_loss_rate(self) -> float:
        return self.process.stationary_loss_rate

    def transmit(self, rng: random.Random) -> Optional[float]:
        if self.step_per_packet:
            self.process.step(rng)
        if rng.random() < self.process.current_loss_rate:
            return None
        return self.latency


class TraceBandwidthLink(LinkModel):
    """Bandwidth replayed from a piecewise-constant trace.

    Args:
        times: ascending breakpoints; ``rates[i]`` holds on
            ``[times[i], times[i+1])`` and ``rates[-1]`` forever after
            the last breakpoint.  Before ``times[0]`` the rate is
            ``rates[0]``.
        rates: packets per time unit per segment.
    """

    def __init__(
        self,
        times: Sequence[float],
        rates: Sequence[float],
        loss_rate: float = 0.0,
        latency: float = 0.0,
    ):
        if len(times) != len(rates) or not times:
            raise ValueError("times and rates must be equal-length and non-empty")
        for t in times:
            if not math.isfinite(t):
                raise ValueError(f"trace times must be finite, got {t!r}")
        for r in rates:
            _check_finite("trace rates", r)
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("trace times must be strictly ascending")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must lie in [0, 1)")
        super().__init__(latency)
        self.times = list(times)
        self.rates = list(rates)
        self.loss_rate = loss_rate

    def rate_at(self, t: float) -> float:
        """Trace rate in force at time ``t``."""
        idx = bisect.bisect_right(self.times, t) - 1
        return self.rates[max(0, idx)]

    def capacity_between(self, t0: float, t1: float) -> float:
        """Integral of the trace over ``[t0, t1)``."""
        total = 0.0
        cursor = t0
        while cursor < t1:
            idx = bisect.bisect_right(self.times, cursor) - 1
            seg_rate = self.rates[max(0, idx)]
            seg_end = self.times[idx + 1] if 0 <= idx + 1 < len(self.times) else t1
            upto = min(t1, seg_end if seg_end > cursor else t1)
            total += seg_rate * (upto - cursor)
            cursor = upto
        return total

    def transmit(self, rng: random.Random) -> Optional[float]:
        if rng.random() < self.loss_rate:
            return None
        return self.latency
