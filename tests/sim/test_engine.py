"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim import EventScheduler


class TestScheduling:
    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        log = []
        sched.schedule_at(3.0, lambda: log.append("c"))
        sched.schedule_at(1.0, lambda: log.append("a"))
        sched.schedule_at(2.0, lambda: log.append("b"))
        while sched.step():
            pass
        assert log == ["a", "b", "c"]
        assert sched.now == 3.0

    def test_equal_times_run_fifo(self):
        sched = EventScheduler()
        log = []
        for i in range(5):
            sched.schedule_at(1.0, lambda i=i: log.append(i))
        while sched.step():
            pass
        assert log == [0, 1, 2, 3, 4]

    def test_schedule_in_the_past_rejected(self):
        sched = EventScheduler(start=5.0)
        with pytest.raises(ValueError):
            sched.schedule_at(4.0, lambda: None)
        with pytest.raises(ValueError):
            sched.schedule(-1.0, lambda: None)

    def test_callback_can_schedule_more(self):
        sched = EventScheduler()
        log = []

        def first():
            log.append(("first", sched.now))
            sched.schedule(2.5, lambda: log.append(("second", sched.now)))

        sched.schedule_at(1.0, first)
        while sched.step():
            pass
        assert log == [("first", 1.0), ("second", 3.5)]


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        sched = EventScheduler()
        log = []
        handle = sched.schedule_at(1.0, lambda: log.append("x"))
        handle.cancel()
        assert not sched.step()
        assert log == []

    def test_pending_excludes_cancelled(self):
        sched = EventScheduler()
        h = sched.schedule_at(1.0, lambda: None)
        sched.schedule_at(2.0, lambda: None)
        assert sched.pending == 2
        h.cancel()
        assert sched.pending == 1


class TestPeriodic:
    def test_periodic_fires_at_interval(self):
        sched = EventScheduler()
        times = []
        sched.schedule_every(2.0, lambda: times.append(sched.now))
        sched.run_until(7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_periodic_with_explicit_first(self):
        sched = EventScheduler()
        times = []
        sched.schedule_every(1.0, lambda: times.append(sched.now), first=0.5)
        sched.run_until(3.0)
        assert times == [0.5, 1.5, 2.5]

    def test_returning_false_stops_the_series(self):
        sched = EventScheduler()
        times = []

        def cb():
            times.append(sched.now)
            if len(times) == 3:
                return False

        sched.schedule_every(1.0, cb)
        sched.run_until(10.0)
        assert times == [1.0, 2.0, 3.0]

    def test_cancel_stops_the_series(self):
        sched = EventScheduler()
        times = []
        handle = sched.schedule_every(1.0, lambda: times.append(sched.now))
        sched.run_until(2.0)
        handle.cancel()
        sched.run_until(5.0)
        assert times == [1.0, 2.0]

    def test_periodic_interleaves_with_oneshots(self):
        sched = EventScheduler()
        log = []
        sched.schedule_every(2.0, lambda: log.append(("tick", sched.now)))
        sched.schedule_at(3.0, lambda: log.append(("shot", sched.now)))
        sched.run_until(4.0)
        assert log == [("tick", 2.0), ("shot", 3.0), ("tick", 4.0)]


class TestRun:
    def test_run_until_advances_clock_even_when_idle(self):
        sched = EventScheduler()
        assert sched.run_until(10.0) == 0
        assert sched.now == 10.0

    def test_run_until_backwards_rejected(self):
        sched = EventScheduler(start=3.0)
        with pytest.raises(ValueError):
            sched.run_until(2.0)

    def test_run_stop_when_predicate(self):
        sched = EventScheduler()
        log = []
        sched.schedule_every(1.0, lambda: log.append(sched.now))
        sched.run(until=100.0, stop_when=lambda: len(log) >= 4)
        assert log == [1.0, 2.0, 3.0, 4.0]

    def test_run_max_events(self):
        sched = EventScheduler()
        log = []
        sched.schedule_every(1.0, lambda: log.append(sched.now))
        sched.run(max_events=3)
        assert len(log) == 3

    def test_events_processed_counter(self):
        sched = EventScheduler()
        for t in (1.0, 2.0):
            sched.schedule_at(t, lambda: None)
        sched.run_until(5.0)
        assert sched.events_processed == 2


class TestAClockThatCannotAdvance:
    """A periodic interval the clock absorbs would fire forever at one
    instant (or never reach the horizon); the scheduler refuses it."""

    @pytest.mark.parametrize("drive", ["run_until", "run"])
    def test_interval_absorbed_at_the_horizon_is_refused_before_firing(self, drive):
        sched = EventScheduler()
        fired = []
        sched.schedule_every(1e-300, lambda: fired.append(sched.now))
        with pytest.raises(ValueError, match="cannot advance the clock"):
            if drive == "run_until":
                sched.run_until(1.0)
            else:
                sched.run(until=1.0)
        assert fired == []

    def test_reschedule_that_cannot_move_the_clock_raises(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_every(1.0, lambda: fired.append(sched.now), first=2.0 ** 53)
        with pytest.raises(ValueError, match="cannot advance the clock"):
            sched.step()
        assert fired == [2.0 ** 53]

    def test_nan_interval_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            EventScheduler().schedule_every(float("nan"), lambda: None)
