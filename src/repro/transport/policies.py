"""Pluggable congestion-control policies (the ``TransportPolicy`` ABC).

A policy is the sender-side brain of one connection: the simulator
feeds it transport events (``on_send`` / ``on_ack`` / ``on_loss``) and
reads back two knobs —

* :attr:`~TransportPolicy.cwnd` — the congestion window, in packets.
  ``math.inf`` means window-unlimited.  Policies must never report a
  window below 1.0 (the conformance suite pins this).
* :attr:`~TransportPolicy.pacing_rate` — packets per simulated time
  unit, or ``None`` for unpaced.  Never negative.

Policies are deterministic and RNG-free: their state is a pure
function of the event sequence, so seeded runs replay bit-identically
regardless of which policy is installed.

Built-ins (see :func:`transport_policies`):

* ``open_loop`` — the null policy: infinite window, no pacing.  With
  this policy a sender behaves exactly like the historical open-loop
  simulator (links alone pace), which keeps it safe as the default.
* ``aimd`` — Reno-style additive-increase/multiplicative-decrease with
  slow start; window-limited, unpaced.
* ``bbr_lite`` — a miniature model-based controller: it tracks the
  minimum observed RTT and a windowed-max delivery-rate estimate, paces
  at a cycling gain around the bandwidth estimate, and sizes cwnd to a
  small multiple of the estimated bandwidth-delay product.  Losses do
  not collapse the window (rate-based, as in BBR).
"""

import math
from collections import deque
from typing import Any, Dict, Optional, Tuple, Type

__all__ = [
    "TransportError",
    "TransportPolicy",
    "OpenLoopPolicy",
    "AimdPolicy",
    "BbrLitePolicy",
    "build_policy",
    "transport_policies",
    "validate_policy",
]


class TransportError(ValueError):
    """Unknown policy kind or invalid policy parameters."""


def _finite(kind: str, **params: float) -> None:
    """Refuse a NaN or infinite float parameter, naming it: a NaN window
    fails only at the first allowance, an infinite one is open loop."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise TransportError(f"{kind}: {name} must be finite, got {value!r}")


class TransportPolicy:
    """Base congestion controller: the open-loop (null) contract.

    Subclasses override the event hooks and the two read-back
    properties; the base class implements "no congestion control at
    all" so it doubles as the ``open_loop`` built-in's behaviour.
    """

    #: Registry key; subclasses must override.
    kind = "open_loop"

    # -- knobs the simulator reads ------------------------------------------

    @property
    def cwnd(self) -> float:
        """Congestion window in packets (``math.inf`` = unlimited, ≥ 1)."""
        return math.inf

    @property
    def pacing_rate(self) -> Optional[float]:
        """Pacing rate in packets per time unit (``None`` = unpaced, ≥ 0)."""
        return None

    # -- events the simulator feeds -----------------------------------------

    def on_send(self, now: float, seq: int) -> None:
        """A data packet entered the wire."""

    def on_ack(self, now: float, rtt: float) -> None:
        """A packet was acknowledged after ``rtt`` time units in flight."""

    def on_loss(self, now: float) -> None:
        """A packet was declared lost (retransmission timeout fired)."""


class OpenLoopPolicy(TransportPolicy):
    """Today's behaviour: the link alone paces, nothing pushes back."""

    kind = "open_loop"


class AimdPolicy(TransportPolicy):
    """Reno-style AIMD with slow start (window-limited, unpaced).

    Args:
        cwnd_init: initial window, packets (≥ 1).
        ssthresh: slow-start threshold; below it each ack adds a full
            packet, above it each ack adds ``1/cwnd`` (congestion
            avoidance).
        beta: multiplicative back-off factor applied on loss, in (0, 1).
    """

    kind = "aimd"

    def __init__(
        self,
        cwnd_init: float = 2.0,
        ssthresh: float = 32.0,
        beta: float = 0.5,
    ):
        _finite("aimd", cwnd_init=cwnd_init, ssthresh=ssthresh, beta=beta)
        if cwnd_init < 1.0:
            raise TransportError("aimd: cwnd_init must be >= 1")
        if ssthresh < 1.0:
            raise TransportError("aimd: ssthresh must be >= 1")
        if not 0.0 < beta < 1.0:
            raise TransportError("aimd: beta must lie in (0, 1)")
        self._cwnd = float(cwnd_init)
        self._ssthresh = float(ssthresh)
        self.beta = float(beta)

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def ssthresh(self) -> float:
        return self._ssthresh

    def on_ack(self, now: float, rtt: float) -> None:
        if self._cwnd < self._ssthresh:
            self._cwnd += 1.0  # slow start: double per RTT
        else:
            self._cwnd += 1.0 / self._cwnd  # AI: +1 packet per RTT

    def on_loss(self, now: float) -> None:
        self._cwnd = max(1.0, self._cwnd * self.beta)  # MD
        self._ssthresh = max(1.0, self._cwnd)


class BbrLitePolicy(TransportPolicy):
    """Rate-based BBR-lite: bandwidth probe + min-RTT model.

    The controller keeps the two BBR state variables: ``min_rtt`` (the
    smallest RTT ever observed — the propagation-delay estimate) and
    ``btl_bw`` (a windowed maximum over per-round delivery-rate
    samples, one round per ``max(min_rtt, 1)`` time units).  It paces
    at ``gain × btl_bw`` with a cycling gain (probe above the estimate,
    then drain below it) and caps the window at ``cwnd_gain`` estimated
    bandwidth-delay products.  Before the first bandwidth sample it is
    open-loop (BBR's startup phase).  Losses are congestion-agnostic:
    only the rate model moves the knobs.

    Args:
        cwnd_gain: window cap in BDP multiples (≥ 1).
        probe_gain: pacing gain in the probe phase (> 1).
        drain_gain: pacing gain in the drain phase, in (0, 1].
        bw_window: rounds of delivery-rate history for the max filter.
    """

    kind = "bbr_lite"

    def __init__(
        self,
        cwnd_gain: float = 2.0,
        probe_gain: float = 1.25,
        drain_gain: float = 0.75,
        bw_window: int = 10,
    ):
        _finite(
            "bbr_lite",
            cwnd_gain=cwnd_gain,
            probe_gain=probe_gain,
            drain_gain=drain_gain,
        )
        if cwnd_gain < 1.0:
            raise TransportError("bbr_lite: cwnd_gain must be >= 1")
        if probe_gain <= 1.0:
            raise TransportError("bbr_lite: probe_gain must be > 1")
        if not 0.0 < drain_gain <= 1.0:
            raise TransportError("bbr_lite: drain_gain must lie in (0, 1]")
        # A round count: 2.5 would silently become 2 and True 1.
        if (
            isinstance(bw_window, bool)
            or not isinstance(bw_window, int)
            or bw_window < 1
        ):
            raise TransportError(
                f"bbr_lite: bw_window must be an int >= 1, got {bw_window!r}"
            )
        self.cwnd_gain = float(cwnd_gain)
        self._gains = (float(probe_gain), float(drain_gain)) + (1.0,) * 6
        self._cycle = 0
        self._samples: deque = deque(maxlen=bw_window)
        self.min_rtt: Optional[float] = None
        self.btl_bw = 0.0
        self._round_start: Optional[float] = None
        self._round_acked = 0

    @property
    def cwnd(self) -> float:
        if self.btl_bw <= 0.0 or self.min_rtt is None:
            return math.inf  # startup: probe without a model
        return max(1.0, self.cwnd_gain * self.btl_bw * self.min_rtt)

    @property
    def pacing_rate(self) -> Optional[float]:
        if self.btl_bw <= 0.0:
            return None
        return self._gains[self._cycle] * self.btl_bw

    def on_ack(self, now: float, rtt: float) -> None:
        self.min_rtt = rtt if self.min_rtt is None else min(self.min_rtt, rtt)
        if self._round_start is None:
            self._round_start = now
        self._round_acked += 1
        elapsed = now - self._round_start
        if elapsed >= max(self.min_rtt, 1.0):
            self._samples.append(self._round_acked / elapsed)
            self.btl_bw = max(self._samples)
            self._round_start = now
            self._round_acked = 0
            self._cycle = (self._cycle + 1) % len(self._gains)


#: kind -> policy class, in registration order.
_POLICIES: Dict[str, Type[TransportPolicy]] = {
    OpenLoopPolicy.kind: OpenLoopPolicy,
    AimdPolicy.kind: AimdPolicy,
    BbrLitePolicy.kind: BbrLitePolicy,
}


def transport_policies() -> Tuple[str, ...]:
    """Registered policy kinds, sorted."""
    return tuple(sorted(_POLICIES))


def build_policy(kind: str, **params: Any) -> TransportPolicy:
    """Instantiate a registered policy, folding bad input to TransportError."""
    cls = _POLICIES.get(kind)
    if cls is None:
        known = ", ".join(transport_policies())
        raise TransportError(
            f"unknown transport policy {kind!r} (known: {known})"
        )
    try:
        return cls(**params)
    except TypeError:
        raise TransportError(
            f"transport policy {kind!r} does not accept params "
            f"{sorted(params)}"
        ) from None


def validate_policy(kind: str, params: Dict[str, Any]) -> None:
    """Raise TransportError unless ``kind``/``params`` build cleanly."""
    build_policy(kind, **params)
