"""Pluggable congestion-control policies (the ``TransportPolicy`` ABC).

A policy is the sender-side brain of one connection: the simulator
feeds it transport events (``on_ack`` / ``on_loss``) and
reads back one knob, :attr:`~TransportPolicy.cwnd` — the congestion
window, in packets.  ``math.inf`` means window-unlimited.  Policies
must never report a window below 1.0 (the conformance suite pins this).

Policies are deterministic and RNG-free: their state is a pure
function of the event sequence, so seeded runs replay bit-identically
regardless of which policy is installed.

Built-ins (see :func:`transport_policies`):

* ``open_loop`` — :class:`TransportPolicy` itself, the null policy:
  infinite window.  With this policy a sender behaves exactly like the
  historical open-loop simulator (links alone pace), which keeps it
  safe as the default.
* ``aimd`` — Reno-style additive-increase/multiplicative-decrease with
  slow start; window-limited.
"""

import math
from typing import Any, Dict, Tuple, Type

__all__ = [
    "TransportError",
    "TransportPolicy",
    "AimdPolicy",
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

    Subclasses override the event hooks and the ``cwnd`` read-back
    property; the base class implements "no congestion control at
    all" and is registered as the ``open_loop`` built-in.
    """

    #: Registry key; subclasses must override.
    kind = "open_loop"

    # -- knobs the simulator reads ------------------------------------------

    @property
    def cwnd(self) -> float:
        """Congestion window in packets (``math.inf`` = unlimited, ≥ 1)."""
        return math.inf

    # -- events the simulator feeds -----------------------------------------

    def on_ack(self, now: float, rtt: float) -> None:
        """A packet was acknowledged after ``rtt`` time units in flight."""

    def on_loss(self, now: float) -> None:
        """A packet was declared lost (retransmission timeout fired)."""


class AimdPolicy(TransportPolicy):
    """Reno-style AIMD with slow start (window-limited).

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

    def on_ack(self, now: float, rtt: float) -> None:
        if self._cwnd < self._ssthresh:
            self._cwnd += 1.0  # slow start: double per RTT
        else:
            self._cwnd += 1.0 / self._cwnd  # AI: +1 packet per RTT

    def on_loss(self, now: float) -> None:
        self._cwnd = max(1.0, self._cwnd * self.beta)  # MD
        self._ssthresh = max(1.0, self._cwnd)


#: kind -> policy class, in registration order.
_POLICIES: Dict[str, Type[TransportPolicy]] = {
    TransportPolicy.kind: TransportPolicy,
    AimdPolicy.kind: AimdPolicy,
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
