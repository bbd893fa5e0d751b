"""Shared bottleneck queues layered onto the link-model family.

:class:`BottleneckQueue` is a fluid FIFO drop-tail queue: a single
server draining at ``rate`` packets per time unit with a finite
``buffer``.  Because service times are deterministic (1/rate per
packet), the whole queue state is one number — ``busy_until``, the
time the server goes idle — which makes enqueue O(1) and keeps the
model exact for any arrival pattern the event engine produces.

:class:`BottleneckLink` composes a queue with any existing
:class:`~repro.sim.links.LinkModel`: the inner link keeps its capacity
and per-packet loss behaviour (and its RNG draw pattern), while every
surviving packet additionally crosses the shared queue, picking up
queueing delay or being tail-dropped.  Many links sharing one queue is
the congested-uplink topology the ``congested_swarm`` scenario builds.

When a :class:`~repro.sim.stats.StatsRecorder` is attached the queue
emits per-bucket series under its entity name: ``queue_delay`` (gauge,
the sojourn time each admitted packet will see), ``enqueued`` and
``dropped`` (counters) — the observability surface the transport
acceptance tests pin.
"""

import math
import random
from typing import Optional

from repro.sim.links import LinkModel
from repro.sim.stats import StatsRecorder

__all__ = ["BottleneckQueue", "BottleneckLink"]


class BottleneckQueue:
    """Fluid FIFO drop-tail queue shared by many links.

    Args:
        rate: service rate, packets per simulated time unit (> 0).
        buffer: capacity in packets (≥ 1); a packet arriving to a full
            backlog is dropped.
        clock: object with a ``now`` attribute (the shared
            :class:`~repro.sim.engine.EventScheduler`).
        stats: optional recorder for the delay/drop series.
        name: stats entity name.
    """

    def __init__(
        self,
        rate: float,
        buffer: int,
        clock,
        stats: Optional[StatsRecorder] = None,
        name: str = "bottleneck",
    ):
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(
                f"bottleneck rate must be finite and positive, got {rate!r}"
            )
        if isinstance(buffer, bool) or not isinstance(buffer, int) or buffer < 1:
            raise ValueError(
                f"bottleneck buffer must be an int of at least 1 packet, got {buffer!r}"
            )
        self.rate = rate
        self.buffer = buffer
        self.clock = clock
        self.stats = stats
        self.name = name
        self.busy_until = 0.0
        self.offered = 0
        self.dropped = 0
        self.delay_sum = 0.0

    def backlog(self, now: float) -> float:
        """Packets (fractional) currently queued or in service."""
        return max(0.0, self.busy_until - now) * self.rate

    def enqueue(self) -> Optional[float]:
        """Offer one packet at the current clock time.

        Returns the packet's sojourn time (queueing wait + its own
        service time), or None if the buffer is full (tail drop).
        """
        now = self.clock.now
        self.offered += 1
        if self.backlog(now) >= self.buffer - 1e-9:
            self.dropped += 1
            if self.stats is not None:
                self.stats.count(now, self.name, "dropped")
            return None
        start = max(self.busy_until, now)
        self.busy_until = start + 1.0 / self.rate
        delay = self.busy_until - now
        self.delay_sum += delay
        if self.stats is not None:
            self.stats.count(now, self.name, "enqueued")
            self.stats.gauge(now, self.name, "queue_delay", delay)
        return delay

    # -- aggregates ---------------------------------------------------------

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets tail-dropped."""
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def mean_delay(self) -> float:
        """Mean sojourn time over admitted packets."""
        admitted = self.offered - self.dropped
        return self.delay_sum / admitted if admitted else 0.0


class BottleneckLink(LinkModel):
    """A per-connection link whose packets also cross a shared queue.

    Capacity (and therefore packet budgets) and per-packet wire loss
    delegate to the wrapped ``inner`` link — including its RNG draws,
    so seeded behaviour of the access link is unchanged — and each
    packet that survives the wire is offered to the queue: tail drop
    loses it, otherwise its arrival delay grows by the sojourn time.
    """

    def __init__(self, inner: LinkModel, queue: BottleneckQueue):
        super().__init__(latency=inner.latency)
        self.inner = inner
        self.queue = queue

    def capacity_between(self, t0: float, t1: float) -> float:
        return self.inner.capacity_between(t0, t1)

    def packet_budget(self, t0: float, t1: float) -> int:
        # The inner link owns the fractional credit.
        return self.inner.packet_budget(t0, t1)

    def transmit(self, rng: random.Random) -> Optional[float]:
        delay = self.inner.transmit(rng)
        if delay is None:
            return None
        sojourn = self.queue.enqueue()
        if sojourn is None:
            return None
        return delay + sojourn
