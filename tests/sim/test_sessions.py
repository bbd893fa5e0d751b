"""Tests for protocol sessions paced on the event clock."""

import random

import pytest

from repro.protocol import CodeParameters, ProtocolPeer, TransferSession
from repro.sim import ConstantRateLink, EventScheduler, StatsRecorder
from repro.sim.sessions import ScheduledSession, run_sessions


def make_params(num_blocks=80, block_size=32, seed=3):
    return CodeParameters(num_blocks=num_blocks, block_size=block_size, stream_seed=seed)


def make_pair(params, content_seed=1):
    rng = random.Random(content_seed)
    content = bytes(
        rng.randrange(256) for _ in range(params.num_blocks * params.block_size)
    )
    src = ProtocolPeer("src", params, content=content)
    dst = ProtocolPeer("dst", params)
    return src, dst


class TestScheduledSession:
    def test_completes_and_stamps_duration(self):
        params = make_params()
        sched = EventScheduler()
        src, dst = make_pair(params)
        session = TransferSession(src, dst, rng=random.Random(4))
        run_sessions(
            sched,
            [ScheduledSession(sched, session, ConstantRateLink(2.0)).start()],
        )
        assert session.receiver.has_decoded
        assert session.stats.completed
        assert session.stats.started_at == 0.0
        assert session.stats.finished_at == sched.now
        assert session.stats.duration > 0

    def test_rate_paces_simulated_time(self):
        # Same protocol, same seeds: 4 pkt/tick finishes ~4x faster in
        # simulated time than 1 pkt/tick with identical packet counts.
        params = make_params()
        durations, packets = {}, {}
        for rate in (1.0, 4.0):
            sched = EventScheduler()
            src, dst = make_pair(params)
            session = TransferSession(src, dst, rng=random.Random(4))
            driver = ScheduledSession(sched, session, ConstantRateLink(rate)).start()
            run_sessions(sched, [driver])
            assert session.receiver.has_decoded
            durations[rate] = session.stats.duration
            packets[rate] = driver.packets_sent
        assert packets[1.0] == packets[4.0]
        assert durations[1.0] == pytest.approx(4.0 * durations[4.0], rel=0.05)

    def test_handshake_latency_delays_start(self):
        params = make_params()
        sched = EventScheduler()
        src, dst = make_pair(params)
        session = TransferSession(src, dst, rng=random.Random(4))
        link = ConstantRateLink(2.0, latency=3.0)
        run_sessions(sched, [ScheduledSession(sched, session, link).start()])
        assert session.stats.started_at == 3.0

    def test_rejected_session_finishes_immediately(self):
        params = make_params()
        rng = random.Random(1)
        content = bytes(
            rng.randrange(256) for _ in range(params.num_blocks * params.block_size)
        )
        enc = params.encoder_for(content)
        symbols = list(enc.symbols(range(params.recovery_target + 10)))
        a = ProtocolPeer("a", params, initial_symbols=symbols)
        b = ProtocolPeer("b", params, initial_symbols=symbols)
        sched = EventScheduler()
        session = TransferSession(a, b, rng=random.Random(4))
        driver = ScheduledSession(sched, session, ConstantRateLink(1.0)).start()
        run_sessions(sched, [driver])
        assert driver.accepted is False
        assert session.stats.rejected
        assert driver.finished
        # Stamped by the driver at the handshake event, which finished it.
        assert session.stats.started_at == session.stats.finished_at == 0.0
        assert session.stats.duration == 0.0

    def test_stats_recorder_sees_progress_series(self):
        params = make_params()
        sched = EventScheduler()
        stats = StatsRecorder()
        src, dst = make_pair(params)
        session = TransferSession(src, dst, rng=random.Random(4))
        driver = ScheduledSession(
            sched, session, ConstantRateLink(2.0), name="xfer", stats=stats
        ).start()
        run_sessions(sched, [driver])
        series = stats.series("xfer", "symbols")
        assert len(series) > 5
        values = [v for _, v in series]
        assert values == sorted(values)  # monotone progress
        assert stats.total("xfer", "packets") == driver.packets_sent

    def test_concurrent_sessions_share_one_clock(self):
        params = make_params()
        sched = EventScheduler()
        drivers = []
        for i, rate in enumerate((1.0, 2.0, 4.0)):
            src, dst = make_pair(params)
            session = TransferSession(src, dst, rng=random.Random(30 + i))
            drivers.append(
                ScheduledSession(sched, session, ConstantRateLink(rate)).start()
            )
        run_sessions(sched, drivers)
        assert all(d.session.receiver.has_decoded for d in drivers)
        finishes = [d.session.stats.finished_at for d in drivers]
        # The slowest link finishes last on the shared clock.
        assert finishes[0] == max(finishes)


class TestTransportGatedSession:
    def test_default_budget_scales_with_recovery_target(self):
        from repro.sim.sessions import DEFAULT_PACKET_BUDGET_FACTOR

        params = make_params()
        sched = EventScheduler()
        src, dst = make_pair(params)
        session = TransferSession(src, dst, rng=random.Random(4))
        driver = ScheduledSession(sched, session, ConstantRateLink(2.0))
        assert driver.max_packets == (
            DEFAULT_PACKET_BUDGET_FACTOR * params.recovery_target
        )

    def test_gated_session_completes_with_closed_accounting(self):
        from repro.transport import RtxManager, TransportController, build_policy

        params = make_params()
        sched = EventScheduler()
        src, dst = make_pair(params)
        session = TransferSession(src, dst, rng=random.Random(4))
        ctrl = TransportController(
            build_policy("aimd"), RtxManager(rto_min=2.0), name="t"
        )
        driver = ScheduledSession(
            sched,
            session,
            ConstantRateLink(4.0, loss_rate=0.1),
            transport=(ctrl, random.Random(5)),
        ).start()
        run_sessions(sched, [driver])
        assert session.receiver.has_decoded
        assert ctrl.sent == driver.packets_sent
        assert ctrl.sent == ctrl.acked + ctrl.timeouts + ctrl.inflight

    def test_cwnd_gating_slows_the_session_down(self):
        # Same seeds: a congestion window strictly tightens pacing, so
        # the gated run takes at least as long in simulated time.
        from repro.transport import RtxManager, TransportController, build_policy

        durations = {}
        for gated in (False, True):
            params = make_params()
            sched = EventScheduler()
            src, dst = make_pair(params)
            session = TransferSession(src, dst, rng=random.Random(4))
            kwargs = {}
            if gated:
                kwargs = {
                    "transport": (
                        TransportController(
                            build_policy("aimd", cwnd_init=1.0),
                            RtxManager(),
                            name="t",
                        ),
                        random.Random(5),
                    ),
                }
            driver = ScheduledSession(
                sched, session, ConstantRateLink(8.0), **kwargs
            ).start()
            run_sessions(sched, [driver])
            assert session.receiver.has_decoded
            durations[gated] = session.stats.duration
        assert durations[True] > durations[False]
