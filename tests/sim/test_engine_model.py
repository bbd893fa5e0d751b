"""``EventScheduler`` against a reference model that sorts by (time, seq).

The model keeps its pending events in a plain list and, at every step,
takes the live event with the smallest ``(time, seq)``; it refuses a
periodic event whose interval is absorbed at the horizon before firing
it, and gives a periodic event that goes on a fresh ``seq``.  Hypothesis
drives both through the same programs — one-shot and periodic events,
callbacks that stop their series, cancel others (before or after they
fire) or schedule more at ``now`` — over several ``run_until`` horizons,
and compares the callback order, ``now``, ``events_processed``,
``pending_oneshot`` and ``peek_time`` after each.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventHandle, EventScheduler
from repro.sim.engine import _stalled


class _Handle:
    def __init__(self, time, callback, interval=None):
        self.time = time
        self.callback = callback
        self.interval = interval
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ModelScheduler:
    """The scheduler's contract, written as a sort over a list."""

    def __init__(self, start=0.0):
        self.now = float(start)
        self.events_processed = 0
        self._events = []  # [time, seq, handle]
        self._seq = itertools.count()

    def schedule_at(self, time, callback):
        if time < self.now:
            raise ValueError("past")
        handle = _Handle(time, callback)
        self._events.append([time, next(self._seq), handle])
        return handle

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_every(self, interval, callback, first=None):
        time = self.now + interval if first is None else first
        handle = _Handle(time, callback, interval)
        self._events.append([time, next(self._seq), handle])
        return handle

    def _live(self):
        return sorted(
            (e for e in self._events if not e[2].cancelled), key=lambda e: e[:2]
        )

    @property
    def pending_oneshot(self):
        return sum(1 for e in self._live() if e[2].interval is None)

    def peek_time(self):
        live = self._live()
        return live[0][0] if live else None

    def run_until(self, horizon):
        executed = 0
        while True:
            live = self._live()
            if not live or live[0][0] > horizon:
                break
            entry = live[0]
            time, _, handle = entry
            if handle.interval is not None and horizon + handle.interval == horizon:
                raise ValueError(_stalled(handle.interval, horizon))
            self._events.remove(entry)
            self.now = time
            result = handle.callback()
            self.events_processed += 1
            goes_on = not handle.cancelled and result is not False
            if handle.interval is not None and goes_on:
                later = time + handle.interval
                if later == time:
                    raise ValueError(_stalled(handle.interval, later))
                handle.time = later
                self._events.append([later, next(self._seq), handle])
            executed += 1
        self.now = horizon
        return executed


DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0])
INTERVALS = st.sampled_from([None, None, 0.5, 1.0, 2.5])
ACTIONS = st.one_of(
    st.just(("noop",)),
    st.just(("stop",)),
    st.tuples(st.just("stop_after"), st.integers(1, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.0, 0.5, 1.0])),
)
PROGRAMS = st.lists(st.tuples(DELAYS, INTERVALS, ACTIONS), min_size=1, max_size=12)
HORIZONS = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0]), min_size=1, max_size=5
).map(sorted)


def _install(sched, program, log):
    """Schedule ``program`` on ``sched``; callbacks log ``(name, now)``."""
    handles = []
    fired = {}

    def make(name, action):
        def callback():
            log.append((name, sched.now))
            fired[name] = fired.get(name, 0) + 1
            kind = action[0]
            if kind == "stop":
                return False
            if kind == "stop_after":
                return False if fired[name] >= action[1] else None
            if kind == "cancel":
                handles[action[1] % len(handles)].cancel()
            elif kind == "spawn":
                # A one-shot at (or after) ``now``, scheduled from inside
                # a callback; it only logs.
                handles.append(sched.schedule(action[1], make(f"{name}+", ("noop",))))
            return None

        return callback

    for i, (delay, interval, action) in enumerate(program):
        callback = make(i, action)
        if interval is None:
            handles.append(sched.schedule(delay, callback))
        else:
            handles.append(
                sched.schedule_every(interval, callback, first=sched.now + delay)
            )
    return handles


def _observe(sched, log):
    return (
        list(log),
        sched.now,
        sched.events_processed,
        sched.pending_oneshot,
        sched.peek_time(),
    )


@settings(max_examples=300, deadline=None)
@given(
    program=PROGRAMS,
    horizons=HORIZONS,
    start=st.sampled_from([0.0, 0.25, 2.0**53]),
    cancel_first=st.lists(st.integers(0, 15), max_size=3),
)
def test_scheduler_matches_the_sorted_model(program, horizons, start, cancel_first):
    real, model = EventScheduler(start), ModelScheduler(start)
    real_log, model_log = [], []
    real_handles = _install(real, program, real_log)
    model_handles = _install(model, program, model_log)
    for k in cancel_first:  # cancelled before anything fires
        real_handles[k % len(real_handles)].cancel()
        model_handles[k % len(model_handles)].cancel()
    assert _observe(real, real_log) == _observe(model, model_log)
    for offset in horizons:
        horizon = start + offset
        outcomes = []
        for sched in (real, model):
            try:
                outcomes.append(("ran", sched.run_until(horizon)))
            except ValueError as exc:
                outcomes.append(("refused", str(exc)))
        assert outcomes[0] == outcomes[1]
        if outcomes[0][0] == "refused":
            assert real_log == model_log
            assert real.events_processed == model.events_processed
            return
        assert _observe(real, real_log) == _observe(model, model_log)


def test_the_heap_never_compares_two_handles():
    """Entries are ``(time, seq, handle)`` with a unique ``seq``: equal
    times never fall through to the handle, which has no ordering (a
    comparison would raise ``TypeError``)."""
    sched = EventScheduler()
    for _ in range(50):
        sched.schedule_at(1.0, lambda: None)
        sched.schedule_every(1.0, lambda: None, first=1.0)
    assert len({seq for _, seq, _ in sched._heap}) == len(sched._heap)
    assert "__lt__" not in vars(EventHandle)
    sched.run_until(3.0)
    assert sched.events_processed == 50 + 50 * 3


@pytest.mark.parametrize("interval", [0.5, 1.0])
def test_a_period_absorbed_at_the_horizon_is_refused_before_it_runs(interval):
    sched, log = EventScheduler(2.0**53), []
    sched.schedule_every(interval, lambda: log.append(sched.now), first=2.0**53)
    with pytest.raises(ValueError, match="cannot advance the clock"):
        sched.run_until(2.0**53)
    assert log == [] and sched.events_processed == 0
