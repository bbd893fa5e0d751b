"""The shared bottleneck queue a link's packets may cross.

:class:`BottleneckQueue` is a fluid FIFO drop-tail queue: a single
server draining at ``rate`` packets per time unit with a finite
``buffer``.  Because service times are deterministic (1/rate per
packet), the whole queue state is one number — ``busy_until``, the
time the server goes idle — which makes enqueue O(1) and keeps the
model exact for any arrival pattern the event engine produces.

A link built with ``queue=`` (:class:`~repro.sim.links.ConstantRateLink`)
keeps its capacity and per-packet loss behaviour (and its RNG draw
pattern), while every packet surviving the wire additionally crosses
the shared queue, picking up queueing delay or being tail-dropped.
Many links sharing one queue is the congested-uplink topology the
``congested_swarm`` scenario builds.

When a :class:`~repro.sim.stats.StatsRecorder` is attached the queue
emits per-bucket series under its entity name: ``queue_delay`` (gauge,
the sojourn time each admitted packet will see), ``enqueued`` and
``dropped`` (counters) — the observability surface the transport
acceptance tests pin.
"""

import math
from typing import Optional

from repro.sim.stats import StatsRecorder

__all__ = ["BottleneckQueue"]


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
