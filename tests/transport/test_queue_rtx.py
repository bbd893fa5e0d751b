"""Bottleneck queue, links sending through one, the rtx manager, and
the controller's one send-accounting step."""

import random

import pytest

from repro.sim.engine import EventScheduler
from repro.sim.links import ConstantRateLink
from repro.sim.stats import StatsRecorder
from repro.transport import (
    BottleneckQueue,
    RtxManager,
    TransportController,
    TransportManager,
    build_policy,
)


class Clock:
    def __init__(self, now=0.0):
        self.now = now


class TestBottleneckQueue:
    def test_idle_queue_charges_one_service_time(self):
        q = BottleneckQueue(rate=4.0, buffer=8, clock=Clock(0.0))
        assert q.enqueue() == pytest.approx(0.25)

    def test_backlog_accumulates_and_drains(self):
        clock = Clock(0.0)
        q = BottleneckQueue(rate=2.0, buffer=100, clock=clock)
        delays = [q.enqueue() for _ in range(4)]
        # FIFO: each packet waits for those ahead of it.
        assert delays == [pytest.approx(0.5 * k) for k in range(1, 5)]
        clock.now = 2.0  # the server has drained everything
        assert q.backlog(2.0) == 0.0
        assert q.enqueue() == pytest.approx(0.5)

    def test_tail_drop_at_full_buffer(self):
        q = BottleneckQueue(rate=1.0, buffer=3, clock=Clock(0.0))
        fates = [q.enqueue() for _ in range(5)]
        assert [f is None for f in fates] == [False, False, False, True, True]
        assert q.dropped == 2 and q.offered == 5
        assert q.drop_rate == pytest.approx(0.4)

    def test_stats_series_emitted(self):
        stats = StatsRecorder(resolution=1.0)
        q = BottleneckQueue(rate=1.0, buffer=2, clock=Clock(0.0), stats=stats)
        for _ in range(4):
            q.enqueue()
        assert stats.total("bottleneck", "enqueued") == 2
        assert stats.total("bottleneck", "dropped") == 2
        assert stats.series("bottleneck", "queue_delay")

    def test_validation(self):
        with pytest.raises(ValueError):
            BottleneckQueue(rate=0.0, buffer=8, clock=Clock())
        with pytest.raises(ValueError):
            BottleneckQueue(rate=1.0, buffer=0, clock=Clock())

    @pytest.mark.parametrize(
        "rate, buffer, arg",
        [
            (float("nan"), 8, "rate"),  # never drops
            (1.0, 2.5, "buffer"),
            (1.0, True, "buffer"),
        ],
    )
    def test_nan_rate_and_non_int_buffer_refused(self, rate, buffer, arg):
        with pytest.raises(ValueError, match=arg):
            BottleneckQueue(rate=rate, buffer=buffer, clock=Clock())


class TestQueuedLink:
    def test_budget_unchanged_delay_composes(self):
        clock = Clock(0.0)
        q = BottleneckQueue(rate=2.0, buffer=100, clock=clock)
        link = ConstantRateLink(3.0, latency=1.5, queue=q)
        assert link.latency == 1.5
        assert link.send_budget(0.0, 1.0) == 3
        # Lossless wire: the propagation delay grows by the sojourn.
        assert link.transmit(random.Random(1)) == pytest.approx(1.5 + 0.5)
        assert link.transmit(random.Random(1)) == pytest.approx(1.5 + 1.0)

    def test_queue_drop_loses_the_packet(self):
        q = BottleneckQueue(rate=1.0, buffer=1, clock=Clock(0.0))
        link = ConstantRateLink(10.0, queue=q)
        rng = random.Random(2)
        fates = [link.transmit(rng) for _ in range(3)]
        assert fates[0] is not None and fates[1] is None and fates[2] is None

    def test_wire_loss_never_reaches_the_queue(self):
        q = BottleneckQueue(rate=1.0, buffer=100, clock=Clock(0.0))
        link = ConstantRateLink(10.0, loss_rate=0.999, queue=q)
        assert link.transmit(random.Random(3)) is None
        assert q.offered == 0

    def test_shared_queue_couples_links(self):
        scheduler = EventScheduler()
        q = BottleneckQueue(rate=1.0, buffer=100, clock=scheduler)
        a = ConstantRateLink(5.0, queue=q)
        b = ConstantRateLink(5.0, queue=q)
        rng = random.Random(4)
        a.transmit(rng)
        # b's packet queues behind a's even though the links are separate.
        assert b.transmit(rng) == pytest.approx(2.0)


class TestRtxManager:
    def test_initial_rto_is_twice_rto_min(self):
        assert RtxManager(rto_min=2.0, rto_max=64.0).rto == 4.0
        assert RtxManager(rto_min=40.0, rto_max=64.0).rto == 64.0

    def test_ack_returns_send_time_once(self):
        rtx = RtxManager()
        rtx.track(0, 1.5)
        assert rtx.ack(0) == 1.5
        assert rtx.ack(0) is None  # duplicate/late ack carries nothing

    def test_expiry_pops_overdue_packets(self):
        rtx = RtxManager(rto_min=2.0)
        rtx.track(0, 0.0)   # deadline 4.0
        rtx.track(1, 3.0)   # deadline 7.0
        assert rtx.expire(4.0) == [(0, 0.0)]
        assert list(rtx._outstanding) == [1]
        assert rtx.ack(0) is None  # expired: the late ack is ignored

    def test_jacobson_karels_estimator(self):
        rtx = RtxManager(rto_min=0.5, rto_max=64.0)
        rtx.observe_rtt(2.0)
        assert rtx.srtt == 2.0 and rtx.rttvar == 1.0
        assert rtx.rto == pytest.approx(6.0)  # srtt + 4*rttvar
        for _ in range(200):
            rtx.observe_rtt(2.0)  # steady RTT: variance decays
        assert rtx.rto < 3.0

    def test_rto_clamped(self):
        rtx = RtxManager(rto_min=2.0, rto_max=5.0)
        rtx.observe_rtt(100.0)
        assert rtx.rto == 5.0
        rtx2 = RtxManager(rto_min=2.0, rto_max=64.0)
        rtx2.observe_rtt(0.01)
        assert rtx2.rto == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RtxManager(rto_min=0.0)
        with pytest.raises(ValueError):
            RtxManager(rto_min=4.0, rto_max=2.0)

    @pytest.mark.parametrize(
        "rto_min, rto_max, arg",
        [
            (1.0, float("nan"), "rto_max"),  # NaN RTO: nothing ever expires
            (float("nan"), 64.0, "rto_min"),  # silently RTO 64
        ],
    )
    def test_nan_bound_refused(self, rto_min, rto_max, arg):
        with pytest.raises(ValueError, match=arg):
            RtxManager(rto_min, rto_max)

    @pytest.mark.parametrize(
        "rto_min, rto_max, arg",
        [
            (-1.0, 64.0, "rto_min"),
            (float("nan"), 64.0, "rto_min"),
            (5.0, 1.0, "rto_max"),
        ],
    )
    def test_manager_refuses_bad_bounds_before_the_first_attach(
        self, rto_min, rto_max, arg
    ):
        with pytest.raises(ValueError, match=arg):
            TransportManager("aimd", rto_min=rto_min, rto_max=rto_max)


class TestOnTransmit:
    """Number the packet; ack it now, or after delay + reverse latency
    on the scheduler; a lost packet waits for its rtx timeout."""

    def _ctrl(self):
        return TransportController(build_policy("aimd"), RtxManager(rto_min=2.0))

    def test_zero_round_trip_acks_inline(self):
        ctrl, sched = self._ctrl(), EventScheduler()
        ctrl.on_transmit(sched, 0.0, 0.0)
        assert (ctrl.sent, ctrl.acked, ctrl.inflight) == (1, 1, 0)

    def test_ack_returns_after_delay_plus_reverse_latency(self):
        ctrl, sched = self._ctrl(), EventScheduler()
        ctrl.on_transmit(sched, 0.5, 0.25)
        assert (ctrl.sent, ctrl.acked, ctrl.inflight) == (1, 0, 1)
        sched.run_until(0.7)
        assert ctrl.acked == 0
        sched.run_until(0.75)
        assert (ctrl.acked, ctrl.inflight) == (1, 0)
        assert ctrl.rtx.srtt == pytest.approx(0.75)

    def test_a_lost_packet_is_tracked_and_never_acked(self):
        ctrl, sched = self._ctrl(), EventScheduler()
        ctrl.on_transmit(sched, None, 0.25)
        sched.run_until(10.0)
        assert (ctrl.sent, ctrl.acked, ctrl.inflight) == (1, 0, 1)
        assert ctrl.allowance(10.0, 4) >= 1 and ctrl.timeouts == 1
