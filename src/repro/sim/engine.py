"""Discrete-event simulation engine: a heap-scheduled clock.

The engine is a priority queue of timestamped callbacks plus a
monotonically advancing simulated clock.  Everything the simulation
does — a connection's per-tick delivery, a latency-delayed packet
arrival, a flash-crowd join wave, a periodic reconfiguration pass —
is an event on one shared heap, so heterogeneous processes compose
without a global lock-step.

Determinism: events at equal times run in scheduling (FIFO) order via a
monotone sequence number, so a seeded run replays exactly.  The legacy
tick loop is recovered as a single periodic event at integer times
(see :class:`repro.overlay.simulator.OverlaySimulator`), which is why
the tick-parity regression in ``tests/sim/test_parity.py`` holds bit
for bit.
"""

import heapq
import itertools
from typing import Any, Callable, List, Optional


def _stalled(interval: float, time: float) -> str:
    return f"a periodic event every {interval!r} cannot advance the clock at {time!r}"


class EventHandle:
    """A scheduled event; keep it to :meth:`cancel` before it fires."""

    __slots__ = ("time", "seq", "callback", "interval", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        interval: Optional[float] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.interval = interval  # None for one-shot events
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event (and, for periodic events, all repeats)."""
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = f"every {self.interval}" if self.interval else "once"
        state = " cancelled" if self.cancelled else ""
        return f"EventHandle(t={self.time}, {kind}{state})"


class EventScheduler:
    """A simulated clock with a heap of pending events.

    Args:
        start: initial clock reading.

    Attributes:
        now: current simulated time; only advances.
        events_processed: callbacks executed so far (cancellations
            excluded) — the benchmark's throughput denominator.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self.events_processed = 0
        self._heap: List[EventHandle] = []
        self._seq = itertools.count()

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` when the clock reaches ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        handle = EventHandle(time, next(self._seq), callback)
        heapq.heappush(self._heap, handle)
        return handle

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback)

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], Any],
        first: Optional[float] = None,
    ) -> EventHandle:
        """Run ``callback`` periodically; first firing at ``first``.

        The callback may return ``False`` (the literal) to stop the
        series; cancelling the returned handle also stops it.
        """
        if not interval > 0:
            raise ValueError("interval must be positive")
        time = self.now + interval if first is None else first
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        handle = EventHandle(time, next(self._seq), callback, interval=interval)
        heapq.heappush(self._heap, handle)
        return handle

    # -- execution ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Live events still on the heap."""
        return sum(1 for h in self._heap if not h.cancelled)

    @property
    def pending_oneshot(self) -> int:
        """Live one-shot events still on the heap.

        Periodic events (ticks, trunk steppers) recur forever and say
        nothing about outstanding work; one-shot events are scheduled
        *work* — in-flight packet arrivals, scenario disturbances —
        that a completion check must not ignore.
        """
        return sum(
            1 for h in self._heap if not h.cancelled and h.interval is None
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the heap is drained."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Execute the next event; False if nothing is pending."""
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = handle.time
            result = handle.callback()
            self.events_processed += 1
            if handle.interval is not None and not handle.cancelled and result is not False:
                later = handle.time + handle.interval
                if later == handle.time:
                    raise ValueError(_stalled(handle.interval, later))
                handle.time = later
                handle.seq = next(self._seq)
                heapq.heappush(self._heap, handle)
            return True
        return False

    def _refuse_stalled_head(self, horizon: float) -> None:
        """A periodic event whose interval is absorbed at ``horizon``
        would fire forever without reaching it."""
        interval = self._heap[0].interval
        if interval is not None and horizon + interval == horizon:
            raise ValueError(_stalled(interval, horizon))

    def run_until(self, time: float) -> int:
        """Execute every event with timestamp <= ``time``; returns count.

        The clock ends exactly at ``time`` even if the last event fired
        earlier (or none were pending).
        """
        if time < self.now:
            raise ValueError(f"cannot run backwards to {time} < now {self.now}")
        executed = 0
        while True:
            nxt = self.peek_time()
            if nxt is None or nxt > time:
                break
            self._refuse_stalled_head(time)
            self.step()
            executed += 1
        self.now = time
        return executed

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drain the heap subject to optional time/event/predicate caps.

        The clock only advances to ``until`` when the run exhausts the
        window (no live event left inside it); an early stop via
        ``stop_when`` or ``max_events`` leaves ``now`` at the last
        executed event so callers can read the true stopping time.
        """
        executed = 0
        exhausted = False
        while True:
            if stop_when is not None and stop_when():
                break
            if max_events is not None and executed >= max_events:
                break
            nxt = self.peek_time()
            if nxt is None or (until is not None and nxt > until):
                exhausted = True
                break
            if until is not None:
                self._refuse_stalled_head(until)
            self.step()
            executed += 1
        if exhausted and until is not None and self.now < until:
            self.now = until
        return executed

    def clear(self) -> None:
        """Drop all pending events (the clock reading is kept)."""
        self._heap.clear()
