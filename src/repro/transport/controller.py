"""Per-connection transport state and the per-simulation manager.

:class:`TransportController` glues one :class:`TransportPolicy` to one
:class:`RtxManager` for one sender→receiver connection: it numbers
outgoing packets, tracks what is in flight, expires timeouts into
``on_loss`` events, and converts the policy's congestion window into a
per-window *send allowance* that caps the link's packet budget.

:class:`TransportManager` is what a simulator holds: the policy
kind/params from a :class:`~repro.api.spec.TransportSpec`, the shared
:class:`~repro.transport.queue.BottleneckQueue` (if any), and one
controller per live connection for aggregate reporting.

Everything here is deterministic and RNG-free; all randomness stays in
the link models, so installing a transport never perturbs the seeded
RNG stream.
"""

from functools import partial
from math import floor, inf
from typing import Any, Dict, List, Optional

from repro.sim.engine import EventScheduler
from repro.transport.policies import TransportPolicy, build_policy
from repro.transport.queue import BottleneckQueue
from repro.transport.rtx import RtxManager

__all__ = ["TransportController", "TransportManager"]

#: RTT floor for same-instant acks (zero-latency links): keeps the
#: estimators away from zero without distorting real samples.
RTT_FLOOR = 1e-3


class TransportController:
    """Congestion state of one connection: policy + rtx + inflight.

    A sender asks once per connection per delivery window, through
    :meth:`~repro.sim.links.ConstantRateLink.send_budget`: the link's
    credit step, then :meth:`allowance` only once ``now`` has reached
    the rtx manager's earliest-deadline bound
    (``RtxManager.next_deadline``), else just :meth:`window_cap`; a
    window-blocked connection with nothing due pays no table scan.
    """

    def __init__(self, policy: TransportPolicy, rtx: RtxManager, name: str = ""):
        self.policy = policy
        self.rtx = rtx
        self.name = name
        self.inflight = 0
        self.sent = 0
        self.acked = 0
        self.timeouts = 0
        self._next_seq = 0

    # -- the simulator's send-side API --------------------------------------

    def allowance(self, now: float, link_budget: int) -> int:
        """Packets this window may send: the link budget capped by
        window room.  Expires timeouts first so freed window is usable
        immediately."""
        rtx = self.rtx
        if now >= rtx.next_deadline:
            for _seq, _sent_at in rtx.expire(now):
                self.inflight = max(0, self.inflight - 1)
                self.timeouts += 1
                self.policy.on_loss(now)
        return self.window_cap(link_budget)

    def window_cap(self, budget: int) -> int:
        """``budget`` capped by the window room left, never below zero
        (the policy's ``cwnd`` floored with an epsilon, less what is in
        flight; ``math.inf`` caps nothing)."""
        cwnd = self.policy.cwnd
        if cwnd != inf:
            room = floor(cwnd + 1e-9) - self.inflight
            if room < budget:
                return room if room > 0 else 0
        return budget

    def on_send(self, now: float) -> int:
        """Register one packet entering the wire; returns its seq."""
        seq = self._next_seq
        self._next_seq += 1
        self.rtx.track(seq, now)
        self.inflight += 1
        self.sent += 1
        return seq

    def on_transmit(
        self,
        scheduler: EventScheduler,
        delay: Optional[float],
        reverse_latency: float,
    ) -> None:
        """Account for one packet put on the wire at ``scheduler.now``.

        Numbers it, then returns its ack after ``delay`` plus the
        reverse path.  Acks are tiny control packets: they cross the
        reverse propagation delay but never queue or drop.  A lost
        packet (``delay`` None — wire loss or tail drop) gets nothing:
        it occupies window until its rtx timeout turns the silence into
        an ``on_loss`` back-off signal.
        """
        now = scheduler.now
        seq = self.on_send(now)
        if delay is None:
            return
        ack_delay = delay + reverse_latency
        if ack_delay <= 0.0:
            self.on_ack(now, seq)
        else:
            # The ack fires when the clock reads ``acked_at``.
            acked_at = now + ack_delay
            scheduler.schedule_at(acked_at, partial(self.on_ack, acked_at, seq))

    def on_ack(self, now: float, seq: int) -> None:
        """An ack for ``seq`` arrived (ignored if it already timed out)."""
        sent_at = self.rtx.ack(seq)
        if sent_at is None:
            return
        self.inflight = max(0, self.inflight - 1)
        self.acked += 1
        rtt = max(now - sent_at, RTT_FLOOR)
        self.rtx.observe_rtt(rtt)
        self.policy.on_ack(now, rtt)


class TransportManager:
    """Builds controllers for a simulation and aggregates their totals.

    Args:
        policy: registered policy kind.
        params: policy constructor params.
        rto_min / rto_max: RTO clamp for every controller's rtx manager.
        queue: the shared bottleneck queue, if the spec configured one
            (exposed here so metrics code can read its aggregates).
    """

    def __init__(
        self,
        policy: str = "open_loop",
        params: Optional[Dict[str, Any]] = None,
        rto_min: float = 2.0,
        rto_max: float = 64.0,
        queue: Optional[BottleneckQueue] = None,
    ):
        self.policy_kind = policy
        self.policy_params = dict(params or {})
        build_policy(policy, **self.policy_params)  # fail fast
        RtxManager(rto_min, rto_max)  # fail fast
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.queue = queue
        self._controllers: List[TransportController] = []

    def attach(self, name: str = "") -> TransportController:
        """A fresh controller for a newly established connection."""
        ctrl = TransportController(
            build_policy(self.policy_kind, **self.policy_params),
            RtxManager(self.rto_min, self.rto_max),
            name=name,
        )
        self._controllers.append(ctrl)
        return ctrl

    # -- aggregate reporting ------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Fleet-wide transport counters (queue aggregates included)."""
        out: Dict[str, float] = {
            "transport_tracked": float(sum(c.sent for c in self._controllers)),
            "transport_acked": float(sum(c.acked for c in self._controllers)),
            "transport_timeouts": float(
                sum(c.timeouts for c in self._controllers)
            ),
        }
        if self.queue is not None:
            out["queue_offered"] = float(self.queue.offered)
            out["queue_drops"] = float(self.queue.dropped)
            out["queue_drop_rate"] = self.queue.drop_rate
            out["queue_delay_mean"] = self.queue.mean_delay
        return out
