"""Discrete-event simulation engine: a heap-scheduled clock.

The engine is a priority queue of timestamped callbacks plus a
monotonically advancing simulated clock.  Everything the simulation
does — a connection's per-tick delivery, a latency-delayed packet
arrival, a flash-crowd join wave, a periodic reconfiguration pass —
is an event on one shared heap, so heterogeneous processes compose
without a global lock-step.

Determinism: events at equal times run in scheduling (FIFO) order via a
monotone sequence number, so a seeded run replays exactly.  A heap
entry is the tuple ``(time, seq, handle)``: ``seq`` is unique, so the
heap orders entries with C tuple comparisons and never compares two
handles; a periodic handle is pushed again under a fresh ``seq`` each
time it fires, and a cancelled one is dropped when it reaches the
head.  The legacy
tick loop is recovered as a single periodic event at integer times
(see :class:`repro.overlay.simulator.OverlaySimulator`), which is why
the tick-parity regression in ``tests/sim/test_parity.py`` holds bit
for bit.
"""

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


def _stalled(interval: float, time: float) -> str:
    return f"a periodic event every {interval!r} cannot advance the clock at {time!r}"


class EventHandle:
    """A scheduled event; keep it to :meth:`cancel` before it fires."""

    __slots__ = ("time", "callback", "interval", "cancelled")

    def __init__(
        self,
        time: float,
        callback: Callable[[], Any],
        interval: Optional[float] = None,
    ):
        self.time = time
        self.callback = callback
        self.interval = interval  # None for one-shot events
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event (and, for periodic events, all repeats)."""
        self.cancelled = True

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
        # (time, seq, handle) entries; ``seq`` breaks time ties FIFO.
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` when the clock reaches ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        handle = EventHandle(time, callback)
        heappush(self._heap, (time, next(self._seq), handle))
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
        handle = EventHandle(time, callback, interval=interval)
        heappush(self._heap, (time, next(self._seq), handle))
        return handle

    # -- execution ----------------------------------------------------------

    @property
    def pending_oneshot(self) -> int:
        """Live one-shot events still on the heap.

        Periodic events (ticks, trunk steppers) recur forever and say
        nothing about outstanding work; one-shot events are scheduled
        *work* — in-flight packet arrivals, scenario disturbances —
        that a completion check must not ignore.
        """
        return sum(
            1 for _, _, h in self._heap if not h.cancelled and h.interval is None
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the heap is drained."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def _fire(self, time: float, handle: EventHandle) -> None:
        """Run a popped live event at ``time``; a periodic one that goes
        on is pushed again under a fresh sequence number."""
        self.now = time
        result = handle.callback()
        self.events_processed += 1
        interval = handle.interval
        if interval is not None and not handle.cancelled and result is not False:
            later = time + interval
            if later == time:
                raise ValueError(_stalled(interval, later))
            handle.time = later
            heappush(self._heap, (later, next(self._seq), handle))

    def step(self) -> bool:
        """Execute the next event; False if nothing is pending."""
        heap = self._heap
        while heap:
            time, _, handle = heappop(heap)
            if not handle.cancelled:
                self._fire(time, handle)
                return True
        return False

    def run_until(self, time: float) -> int:
        """Execute every event with timestamp <= ``time``; returns count.

        The clock ends exactly at ``time`` even if the last event fired
        earlier (or none were pending).  A periodic event whose interval
        is absorbed at ``time`` would fire forever without reaching it,
        so it is refused before it runs.
        """
        if time < self.now:
            raise ValueError(f"cannot run backwards to {time} < now {self.now}")
        heap = self._heap
        fire = self._fire
        executed = 0
        while heap:
            head = heap[0]
            handle = head[2]
            if handle.cancelled:
                heappop(heap)
                continue
            if head[0] > time:
                break
            interval = handle.interval
            if interval is not None and time + interval == time:
                raise ValueError(_stalled(interval, time))
            heappop(heap)
            fire(head[0], handle)
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
                interval = self._heap[0][2].interval
                if interval is not None and until + interval == until:
                    raise ValueError(_stalled(interval, until))
            self.step()
            executed += 1
        if exhausted and until is not None and self.now < until:
            self.now = until
        return executed
