"""Tests for the one link class (GE convergence, jitter, queue, draws)."""

import hashlib
import random

import pytest

from repro.sim import (
    ConstantRateLink,
    GilbertElliottLink,
    GilbertElliottProcess,
)
from repro.transport import BottleneckQueue


class TestConstantRate:
    def test_integer_rate(self):
        link = ConstantRateLink(3.0)
        assert [link.send_budget(t, t + 1) for t in range(4)] == [3, 3, 3, 3]

    def test_fractional_credit_sequence_is_exactly_periodic(self):
        # Ten windows of 0.1 must yield exactly one packet despite float
        # representation error (the epsilon floor).
        link = ConstantRateLink(0.1)
        seq = [link.send_budget(t, t + 1) for t in range(30)]
        assert sum(seq) == 3
        assert seq[9] == seq[19] == seq[29] == 1

    def test_credit_never_negative(self):
        link = ConstantRateLink(0.5)
        for t in range(100):
            assert link.send_budget(t, t + 1) >= 0
            assert link._credit >= 0.0

    def test_zero_length_window(self):
        link = ConstantRateLink(5.0)
        assert link.send_budget(1.0, 1.0) == 0

    def test_backwards_window_rejected(self):
        link = ConstantRateLink(1.0)
        with pytest.raises(ValueError):
            link.send_budget(2.0, 1.0)

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
        link = ConstantRateLink(1.0, latency=5.0, jitter=2.0)
        rng = random.Random(3)
        delays = [link.transmit(rng) for _ in range(200)]
        assert all(3.0 <= d <= 7.0 for d in delays)

    def test_delay_clamped_at_zero(self):
        link = ConstantRateLink(1.0, latency=0.5, jitter=2.0)
        rng = random.Random(4)
        delays = [link.transmit(rng) for _ in range(200)]
        assert min(delays) == 0.0
        assert all(d >= 0.0 for d in delays)

    def test_zero_jitter_is_constant(self):
        link = ConstantRateLink(1.0, latency=1.5, jitter=0.0)
        rng = random.Random(5)
        assert {link.transmit(rng) for _ in range(20)} == {1.5}
        # ...and draws only the loss roll per packet.
        mirror = random.Random(5)
        for _ in range(20):
            mirror.random()
        assert rng.getstate() == mirror.getstate()


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
        assert lost / n == pytest.approx(link.process.stationary_loss_rate, rel=0.08)

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
        assert GilbertElliottLink(1.0).step_per_packet  # a private chain
        rng = random.Random(1)
        chain.bad = True
        assert a.transmit(rng) is None and b.transmit(rng) is None
        chain.bad = False
        assert a.transmit(rng) == 0.0 and b.transmit(rng) == 0.0

    def test_loss_rate_reads_the_stationary_mixture(self):
        link = GilbertElliottLink(1.0, loss_good=0.2, loss_bad=0.9)
        # pi_bad = 0.05 / 0.35 = 1/7: (0.9 + 6 * 0.2) / 7 = 0.3.
        assert link.loss_rate == link.process.stationary_loss_rate
        assert link.loss_rate == pytest.approx(0.3)
        link.process.bad = True
        assert (link.loss_rate, link.process.current_loss_rate) == (
            pytest.approx(0.3), 0.9,
        )
        chain = GilbertElliottProcess(0.1, 0.3, loss_good=0.0, loss_bad=0.5)
        assert GilbertElliottLink(1.0, process=chain).loss_rate == pytest.approx(0.125)

    def test_assigning_loss_rate_steers_nothing(self):
        # The chain decides every fate: the field is read, never drawn on.
        steered = GilbertElliottLink(1.0, loss_good=0.2, loss_bad=0.9)
        steered.loss_rate = 0.99
        plain = GilbertElliottLink(1.0, loss_good=0.2, loss_bad=0.9)
        a, b = random.Random(4), random.Random(4)
        fates = [(steered.transmit(a), plain.transmit(b)) for _ in range(200)]
        assert all(x == y for x, y in fates)
        assert a.getstate() == b.getstate()


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
        p = GilbertElliottProcess(0.3, 0.5)
        p.bad = True
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, arg",
    [
        (lambda: ConstantRateLink(NAN), "rate"),  # ValueError in send_budget
        (lambda: ConstantRateLink(INF), "rate"),  # OverflowError in send_budget
        (lambda: ConstantRateLink(1.0, latency=NAN), "latency"),  # NaN arrivals
        (lambda: ConstantRateLink(1.0, latency=1.0, jitter=NAN), "jitter"),
        (lambda: GilbertElliottLink(NAN), "rate"),
    ],
    ids=[
        "constant-nan-rate", "constant-inf-rate", "constant-nan-latency",
        "jitter-nan", "gilbert-nan-rate",
    ],
)
def test_non_finite_link_argument_refused(make, arg):
    with pytest.raises(ValueError, match=arg):
        make()


class _Clock:
    now = 0.0


def _table_links(clock, queued):
    """The link table's rows: ``name -> (link, shared chain or None)``."""
    chain = GilbertElliottProcess(0.2, 0.3, loss_good=0.05, loss_bad=0.6)
    queue = (lambda: BottleneckQueue(0.4, 2, clock)) if queued else (lambda: None)
    rows = {
        "constant": (ConstantRateLink(0.7, loss_rate=0.1, queue=queue()), None),
        "latency_jitter": (
            ConstantRateLink(
                0.7, loss_rate=0.02, latency=1.5, jitter=2.0, queue=queue()
            ),
            None,
        ),
        "ge_private": (
            GilbertElliottLink(
                0.7, p_good_bad=0.2, p_bad_good=0.3, loss_good=0.05,
                loss_bad=0.6, queue=queue(),
            ),
            None,
        ),
        "ge_shared": (GilbertElliottLink(0.7, process=chain, queue=queue()), chain),
    }
    suffix = "+queue" if queued else ""
    return {name + suffix: row for name, row in rows.items()}


def _run_table_row(link, chain, clock):
    """40 windows at rate 0.7 on ``Random(7)``: a shared chain steps
    before each window, then each window's budget and its packets'
    fates; the stream's next draw pins how many draws were made."""
    rng = random.Random(7)
    rows = []
    for t in range(40):
        if chain is not None:
            chain.step(rng)
        clock.now = float(t + 1)
        budget = link.send_budget(float(t), float(t + 1))
        rows.append((budget, tuple(link.transmit(rng) for _ in range(budget))))
    return rows, rng.random()


#: name -> (packets, lost, sha256 prefix of ``repr((rows, next_draw))``),
#: recorded from the five link classes this one class replaced.
LINK_TABLE = {
    "constant": (28, 6, "48377a63546b7d5c"),
    "latency_jitter": (28, 0, "ea9c183c9a207599"),
    "ge_private": (28, 9, "46f002db069ae3bd"),
    "ge_shared": (28, 5, "d113fbcc63d2bce1"),
    "constant+queue": (28, 10, "f0be5c15c91b8ab3"),
    "latency_jitter+queue": (28, 10, "bd6b5ee1a703c919"),
    "ge_private+queue": (28, 11, "81f32be32331a226"),
    "ge_shared+queue": (28, 11, "f03c3028dbc2c38e"),
}


@pytest.mark.parametrize("queued", [False, True], ids=["wire", "queued"])
def test_link_table_is_draw_exact(queued):
    """Every budget, fate, delay and draw of each link kind, with and
    without a bottleneck queue, is what the replaced classes produced."""
    clock = _Clock()
    got = {}
    for name, (link, chain) in _table_links(clock, queued).items():
        rows, next_draw = _run_table_row(link, chain, clock)
        fates = [f for _, fs in rows for f in fs]
        digest = hashlib.sha256(repr((rows, next_draw)).encode()).hexdigest()[:16]
        got[name] = (len(fates), sum(f is None for f in fates), digest)
    assert got == {k: v for k, v in LINK_TABLE.items() if k in got}
    assert len(got) == 4


def test_link_table_reaches_jitter():
    # The jitter row's first delivered packet: latency 1.5 plus a
    # uniform draw in [-2, 2], clamped at zero.
    clock = _Clock()
    link, chain = _table_links(clock, False)["latency_jitter"]
    rows, _ = _run_table_row(link, chain, clock)
    assert rows[:4] == [(0, ()), (1, (0.10339669569800769,)), (1, (0.0,)), (0, ())]
