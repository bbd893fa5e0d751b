"""Unit behaviour of the built-in congestion-control policies."""

import math

import pytest

from repro.transport import (
    AimdPolicy,
    TransportError,
    TransportPolicy,
    build_policy,
    transport_policies,
    validate_policy,
)


class TestRegistry:
    def test_built_ins_registered(self):
        assert set(transport_policies()) >= {"open_loop", "aimd"}

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
        validate_policy("open_loop", {})


class TestOpenLoop:
    def test_never_constrains(self):
        policy = build_policy("open_loop")
        assert type(policy) is TransportPolicy
        assert policy.cwnd == math.inf
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "cls, param, value",
    [
        (AimdPolicy, "cwnd_init", NAN),  # failed only at the first allowance
        (AimdPolicy, "cwnd_init", INF),  # an unlimited window: open loop
        (AimdPolicy, "ssthresh", NAN),
    ],
)
def test_non_finite_param_refused(cls, param, value):
    with pytest.raises(TransportError, match=param):
        cls(**{param: value})
