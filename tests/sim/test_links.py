"""Tests for the link-model hierarchy (satellite: GE convergence, traces)."""

import random

import pytest

from repro.sim import (
    ConstantRateLink,
    GilbertElliottLink,
    GilbertElliottProcess,
    LatencyJitterLink,
    TraceBandwidthLink,
)


class TestConstantRate:
    def test_integer_rate(self):
        link = ConstantRateLink(3.0)
        assert [link.packet_budget(t, t + 1) for t in range(4)] == [3, 3, 3, 3]

    def test_fractional_credit_sequence_is_exactly_periodic(self):
        # Ten windows of 0.1 must yield exactly one packet despite float
        # representation error (the epsilon floor).
        link = ConstantRateLink(0.1)
        seq = [link.packet_budget(t, t + 1) for t in range(30)]
        assert sum(seq) == 3
        assert seq[9] == seq[19] == seq[29] == 1

    def test_credit_never_negative(self):
        link = ConstantRateLink(0.5)
        for t in range(100):
            assert link.packet_budget(t, t + 1) >= 0
            assert link._credit >= 0.0

    def test_zero_length_window(self):
        link = ConstantRateLink(5.0)
        assert link.packet_budget(1.0, 1.0) == 0

    def test_backwards_window_rejected(self):
        link = ConstantRateLink(1.0)
        with pytest.raises(ValueError):
            link.packet_budget(2.0, 1.0)

    def test_loss_roll_consumes_one_draw_always(self):
        # Tick parity depends on one RNG draw per packet even at loss 0.
        link = ConstantRateLink(1.0, loss_rate=0.0)
        rng_a, rng_b = random.Random(5), random.Random(5)
        assert link.transmit(rng_a) == 0.0  # never lost at loss 0...
        rng_b.random()  # ...but exactly one draw was consumed
        assert rng_a.random() == rng_b.random()

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantRateLink(-1.0)
        with pytest.raises(ValueError):
            ConstantRateLink(1.0, loss_rate=1.0)
        with pytest.raises(ValueError):
            ConstantRateLink(1.0, latency=-0.5)


class TestLatencyJitter:
    def test_delay_within_jitter_band(self):
        link = LatencyJitterLink(1.0, latency=5.0, jitter=2.0)
        rng = random.Random(3)
        delays = [link.transmit(rng) for _ in range(200)]
        assert all(3.0 <= d <= 7.0 for d in delays)

    def test_delay_clamped_at_zero(self):
        link = LatencyJitterLink(1.0, latency=0.5, jitter=2.0)
        rng = random.Random(4)
        delays = [link.transmit(rng) for _ in range(200)]
        assert min(delays) == 0.0
        assert all(d >= 0.0 for d in delays)

    def test_zero_jitter_is_constant(self):
        link = LatencyJitterLink(1.0, latency=1.5, jitter=0.0)
        rng = random.Random(5)
        assert {link.transmit(rng) for _ in range(20)} == {1.5}


class TestGilbertElliott:
    def test_stationary_loss_rate_formula(self):
        p = GilbertElliottProcess(0.1, 0.3, loss_good=0.0, loss_bad=0.5)
        pi_bad = 0.1 / 0.4
        assert p.stationary_loss_rate == pytest.approx(pi_bad * 0.5)

    def test_empirical_loss_converges_to_stationary(self):
        # Satellite requirement: long-run loss within tolerance of the
        # chain's stationary mixture.
        link = GilbertElliottLink(
            1.0, p_good_bad=0.05, p_bad_good=0.25, loss_good=0.01, loss_bad=0.6
        )
        rng = random.Random(12)
        n = 60_000
        lost = sum(1 for _ in range(n) if link.transmit(rng) is None)
        assert lost / n == pytest.approx(link.stationary_loss_rate, rel=0.08)

    def test_loss_is_bursty_not_independent(self):
        # Consecutive losses must be far likelier than the marginal rate
        # (the whole point of the Gilbert-Elliott model).
        link = GilbertElliottLink(
            1.0, p_good_bad=0.02, p_bad_good=0.2, loss_good=0.0, loss_bad=0.7
        )
        rng = random.Random(9)
        outcomes = [link.transmit(rng) is None for _ in range(40_000)]
        marginal = sum(outcomes) / len(outcomes)
        after_loss = [b for a, b in zip(outcomes, outcomes[1:]) if a]
        conditional = sum(after_loss) / len(after_loss)
        assert conditional > 2.0 * marginal

    def test_shared_process_correlates_links(self):
        chain = GilbertElliottProcess(0.5, 0.5, loss_good=0.0, loss_bad=1.0)
        a = GilbertElliottLink(1.0, process=chain)
        b = GilbertElliottLink(1.0, process=chain)
        assert not a.step_per_packet and not b.step_per_packet
        rng = random.Random(1)
        chain.bad = True
        assert a.transmit(rng) is None and b.transmit(rng) is None
        chain.bad = False
        assert a.transmit(rng) == 0.0 and b.transmit(rng) == 0.0


class TestGilbertElliottBurstStats:
    """Satellite: realized burst statistics exposed by the loss chain."""

    def test_burst_bookkeeping_matches_the_chain(self):
        p = GilbertElliottProcess(0.05, 0.25, loss_good=0.01, loss_bad=0.6)
        rng = random.Random(7)
        for _ in range(80_000):
            p.step(rng)
        # Long-run occupancy reproduces the stationary mixture...
        assert p.empirical_loss_rate == pytest.approx(
            p.stationary_loss_rate, rel=0.05
        )
        # ...and completed bursts are geometric with mean 1/p_bad_good.
        assert p.mean_burst_length == pytest.approx(1.0 / 0.25, rel=0.05)
        assert p.longest_burst >= p.mean_burst_length
        assert p.bad_steps >= p.burst_steps_total  # an open burst may remain

    def test_fresh_chain_reports_zeros(self):
        p = GilbertElliottProcess(0.1, 0.3)
        assert p.mean_burst_length == 0.0
        assert p.empirical_loss_rate == p.current_loss_rate

    def test_attach_stats_emits_series(self):
        from repro.sim.stats import StatsRecorder

        stats = StatsRecorder(resolution=1.0)
        p = GilbertElliottProcess(0.3, 0.5, start_bad=True)
        p.attach_stats(stats, entity="loss:regional")
        rng = random.Random(3)
        for _ in range(2_000):
            p.step(rng)
        bad = stats.series("loss:regional", "bad_state")
        assert bad  # one gauge per step, bucketed by the recorder
        bursts = stats.series("loss:regional", "burst_length")
        assert bursts
        assert p.bursts > 0

    def test_observation_never_changes_the_draws(self):
        plain = GilbertElliottProcess(0.1, 0.3, loss_good=0.0, loss_bad=0.5)
        from repro.sim.stats import StatsRecorder

        observed = GilbertElliottProcess(0.1, 0.3, loss_good=0.0, loss_bad=0.5)
        observed.attach_stats(StatsRecorder(resolution=1.0))
        rng_a, rng_b = random.Random(11), random.Random(11)
        states_a, states_b = [], []
        for _ in range(5_000):
            plain.step(rng_a)
            observed.step(rng_b)
            states_a.append(plain.bad)
            states_b.append(observed.bad)
        assert states_a == states_b
        assert rng_a.getstate() == rng_b.getstate()


class TestTraceBandwidth:
    def test_budget_is_trace_integral_within_one_packet(self):
        # Satellite requirement: delivered budget == integral of the
        # trace ± 1 packet, regardless of how the windows are sliced.
        times = [0.0, 10.0, 20.0, 35.0]
        rates = [2.0, 0.0, 5.0, 1.0]
        link = TraceBandwidthLink(times, rates)
        total = sum(link.packet_budget(t, t + 1) for t in range(50))
        integral = 2.0 * 10 + 0.0 * 10 + 5.0 * 15 + 1.0 * 15
        assert abs(total - integral) <= 1

    def test_fractional_windows_match_integral_too(self):
        link = TraceBandwidthLink([0.0, 5.0], [1.5, 0.25])
        t, total = 0.0, 0
        while t < 40.0:
            total += link.packet_budget(t, t + 0.7)
            t += 0.7
        integral = 1.5 * 5 + 0.25 * (t - 5.0)
        assert abs(total - integral) <= 1

    def test_rate_at_lookup(self):
        link = TraceBandwidthLink([0.0, 10.0], [3.0, 1.0])
        assert link.rate_at(0.0) == 3.0
        assert link.rate_at(9.99) == 3.0
        assert link.rate_at(10.0) == 1.0
        assert link.rate_at(100.0) == 1.0

    def test_dead_interval_charges_nothing(self):
        link = TraceBandwidthLink([0.0, 1.0, 2.0], [5.0, 0.0, 5.0])
        assert link.packet_budget(0.0, 1.0) == 5
        assert link.packet_budget(1.0, 2.0) == 0  # outage, no hoarding beyond credit
        assert link.packet_budget(2.0, 3.0) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceBandwidthLink([], [])
        with pytest.raises(ValueError):
            TraceBandwidthLink([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TraceBandwidthLink([0.0], [-1.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, arg",
    [
        (lambda: ConstantRateLink(NAN), "rate"),  # ValueError in packet_budget
        (lambda: ConstantRateLink(INF), "rate"),  # OverflowError in packet_budget
        (lambda: ConstantRateLink(1.0, latency=NAN), "latency"),  # NaN arrivals
        (lambda: LatencyJitterLink(1.0, latency=1.0, jitter=NAN), "jitter"),
        (lambda: GilbertElliottLink(NAN), "rate"),
        (lambda: TraceBandwidthLink([0.0, NAN], [1.0, 2.0]), "times"),
        (lambda: TraceBandwidthLink([0.0, 1.0], [1.0, NAN]), "rates"),
    ],
    ids=[
        "constant-nan-rate", "constant-inf-rate", "constant-nan-latency",
        "jitter-nan", "gilbert-nan-rate", "trace-nan-time", "trace-nan-rate",
    ],
)
def test_non_finite_link_argument_refused(make, arg):
    with pytest.raises(ValueError, match=arg):
        make()
