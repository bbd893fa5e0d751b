"""Unit behaviour of the built-in congestion-control policies."""

import math

import pytest

from repro.transport import (
    AimdPolicy,
    BbrLitePolicy,
    OpenLoopPolicy,
    TransportError,
    build_policy,
    transport_policies,
    validate_policy,
)


class TestRegistry:
    def test_built_ins_registered(self):
        assert set(transport_policies()) >= {"open_loop", "aimd", "bbr_lite"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(TransportError, match="unknown transport policy"):
            build_policy("psychic")

    def test_unknown_param_rejected(self):
        with pytest.raises(TransportError):
            build_policy("aimd", psychic=1)
        with pytest.raises(TransportError):
            validate_policy("aimd", {"psychic": 1})

    def test_validate_accepts_good_params(self):
        validate_policy("aimd", {"beta": 0.7})
        validate_policy("bbr_lite", {"probe_gain": 1.5})
        validate_policy("open_loop", {})


class TestOpenLoop:
    def test_never_constrains(self):
        policy = OpenLoopPolicy()
        assert policy.cwnd == math.inf
        assert policy.pacing_rate is None
        policy.on_send(0.0, 0)
        policy.on_ack(1.0, 1.0)
        policy.on_loss(2.0)
        assert policy.cwnd == math.inf


class TestAimd:
    def test_slow_start_doubles_per_window_of_acks(self):
        policy = AimdPolicy(cwnd_init=2.0, ssthresh=32.0)
        for _ in range(4):
            policy.on_ack(1.0, 1.0)
        assert policy.cwnd == 6.0  # +1 per ack below ssthresh

    def test_congestion_avoidance_is_sublinear(self):
        policy = AimdPolicy(cwnd_init=32.0, ssthresh=32.0)
        policy.on_ack(1.0, 1.0)
        assert policy.cwnd == pytest.approx(32.0 + 1.0 / 32.0)

    def test_loss_multiplicative_decrease(self):
        policy = AimdPolicy(cwnd_init=16.0, beta=0.5)
        policy.on_loss(1.0)
        assert policy.cwnd == 8.0

    def test_cwnd_floor_is_one(self):
        policy = AimdPolicy(cwnd_init=2.0, beta=0.5)
        for _ in range(20):
            policy.on_loss(1.0)
        assert policy.cwnd == 1.0

    def test_bad_params_rejected(self):
        with pytest.raises(TransportError):
            AimdPolicy(cwnd_init=0.0)
        with pytest.raises(TransportError):
            AimdPolicy(beta=1.5)
        with pytest.raises(TransportError):
            AimdPolicy(ssthresh=0.0)


class TestBbrLite:
    def test_startup_is_open_until_first_bandwidth_sample(self):
        policy = BbrLitePolicy()
        assert policy.cwnd == math.inf
        assert policy.pacing_rate is None

    def test_bandwidth_sample_sets_rate_and_cwnd(self):
        policy = BbrLitePolicy(cwnd_gain=2.0, probe_gain=1.25)
        for i in range(10):
            policy.on_ack(float(i) * 0.5, 2.0)
        assert policy.min_rtt == 2.0
        assert policy.btl_bw is not None and policy.btl_bw > 0
        assert policy.pacing_rate == pytest.approx(
            policy.btl_bw * policy._gains[policy._cycle]
        )
        bdp = policy.btl_bw * policy.min_rtt
        assert policy.cwnd == pytest.approx(max(1.0, 2.0 * bdp))

    def test_losses_do_not_collapse_the_window(self):
        policy = BbrLitePolicy()
        for i in range(10):
            policy.on_ack(float(i) * 0.5, 2.0)
        before = policy.cwnd
        policy.on_loss(10.0)
        assert policy.cwnd == before

    def test_min_rtt_tracks_the_floor(self):
        policy = BbrLitePolicy()
        policy.on_ack(0.0, 3.0)
        policy.on_ack(1.0, 1.5)
        policy.on_ack(2.0, 2.5)
        assert policy.min_rtt == 1.5

    def test_bad_params_rejected(self):
        with pytest.raises(TransportError):
            BbrLitePolicy(cwnd_gain=0.0)
        with pytest.raises(TransportError):
            BbrLitePolicy(probe_gain=0.5)
        with pytest.raises(TransportError):
            BbrLitePolicy(bw_window=0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "cls, param, value",
    [
        (AimdPolicy, "cwnd_init", NAN),  # failed only at the first allowance
        (AimdPolicy, "cwnd_init", INF),  # an unlimited window: open loop
        (AimdPolicy, "ssthresh", NAN),
        (BbrLitePolicy, "cwnd_gain", NAN),
        (BbrLitePolicy, "probe_gain", NAN),
        (BbrLitePolicy, "probe_gain", INF),
        (BbrLitePolicy, "bw_window", 2.5),  # silently a 2-round window
        (BbrLitePolicy, "bw_window", True),  # silently a 1-round window
    ],
)
def test_non_finite_or_non_int_param_refused(cls, param, value):
    with pytest.raises(TransportError, match=param):
        cls(**{param: value})
