"""Conformance contract every registered transport policy must honour.

Parametrised over :func:`repro.transport.transport_policies`, so a
newly registered policy is pulled into the contract automatically:

* the congestion window never reports below 1 packet, whatever event
  sequence the policy has seen;
* a seeded run is bit-identical when replayed (policies are
  deterministic and RNG-free);
* scenarios without transport-paced senders reject a transport spec
  with :class:`SpecError` (CLI exit status 2).
"""

import dataclasses
import math
import random

import pytest

from repro.api import SpecError, TransportSpec, build, run, specs
from repro.api.__main__ import main as cli_main
from repro.transport import (
    RtxManager,
    TransportController,
    build_policy,
    transport_policies,
)

POLICIES = transport_policies()


def _adversarial_events(policy, seed=0):
    """Drive a policy through a randomized but seeded event gauntlet."""
    rng = random.Random(seed)
    now = 0.0
    for _ in range(500):
        now += rng.uniform(0.01, 2.0)
        # A send is no policy event: only acks and losses move a window.
        if rng.randrange(2):
            policy.on_ack(now, rng.uniform(1e-3, 5.0))
        else:
            policy.on_loss(now)
        yield now


@pytest.mark.parametrize("kind", POLICIES)
class TestPolicyInvariants:
    def test_cwnd_never_below_one(self, kind):
        policy = build_policy(kind)
        for _ in _adversarial_events(policy, seed=1):
            assert policy.cwnd >= 1.0

    def test_steady_send_ack_loop_gets_acks(self, kind):
        ctrl = TransportController(build_policy(kind), RtxManager(), name=kind)
        now = 0.0
        for _ in range(2_000):
            now += 0.1
            for _ in range(ctrl.allowance(now, 4)):
                ctrl.on_ack(now + 1.0, ctrl.on_send(now))
        assert ctrl.acked > 0

    def test_controller_allowance_is_sane(self, kind):
        """Allowance never exceeds the link budget, never goes negative,
        and window bookkeeping survives heavy timeouts."""
        ctrl = TransportController(
            build_policy(kind), RtxManager(rto_min=0.5), name=kind
        )
        rng = random.Random(3)
        now = 0.0
        for _ in range(300):
            now += rng.uniform(0.1, 1.0)
            budget = rng.randrange(0, 6)
            allowed = ctrl.allowance(now, budget)
            assert 0 <= allowed <= budget
            for _ in range(allowed):
                seq = ctrl.on_send(now)
                if rng.random() < 0.6:  # the rest time out
                    ctrl.on_ack(now + rng.uniform(0.01, 0.4), seq)
        assert ctrl.inflight >= 0
        assert ctrl.inflight == len(ctrl.rtx._outstanding)
        assert ctrl.sent == ctrl.acked + ctrl.timeouts + ctrl.inflight


@pytest.mark.parametrize("kind", POLICIES)
def test_seeded_runs_replay_bit_identically(kind):
    spec = dataclasses.replace(
        specs.flash_crowd(
            num_peers=8, target=30, initial_seeded=2, waves=2,
            wave_interval=4, seed=13,
        ),
        transport=TransportSpec(
            policy=kind, bottleneck_rate=6.0, bottleneck_buffer=10
        ),
    )
    first = run(spec)
    second = run(spec)
    assert first.metrics == second.metrics
    assert first.report.completion_ticks == second.report.completion_ticks


@pytest.mark.parametrize("kind", POLICIES)
def test_engines_agree_under_transport(kind):
    spec = dataclasses.replace(
        specs.flash_crowd(
            num_peers=8, target=30, initial_seeded=2, waves=2,
            wave_interval=4, seed=13,
        ),
        transport=TransportSpec(
            policy=kind, bottleneck_rate=6.0, bottleneck_buffer=10
        ),
    )
    reference = run(spec)
    columnar = run(spec.with_override("measurement.engine", "columnar"))
    assert reference.metrics == columnar.metrics


UNSUPPORTING = ("pair_transfer", "multi_sender_transfer", "summary_tradeoff")


@pytest.mark.parametrize("scenario_name", UNSUPPORTING)
def test_unsupporting_scenarios_reject_transport(scenario_name):
    from repro.api import registry

    spec = dataclasses.replace(
        registry.small_spec(scenario_name), transport=TransportSpec()
    )
    with pytest.raises(SpecError, match="no transport-paced senders"):
        build(spec)


def test_cli_rejection_is_exit_2(capsys):
    code = cli_main(["--scenario", "pair_transfer", "--transport", "open_loop"])
    assert code == 2
    assert "no transport-paced senders" in capsys.readouterr().err


def test_cli_unknown_policy_is_exit_2(capsys):
    code = cli_main(["--scenario", "flash_crowd", "--transport", "psychic"])
    assert code == 2
    assert "unknown transport policy" in capsys.readouterr().err


def test_open_loop_policy_reports_unlimited():
    """The default arm really is the null controller."""
    policy = build_policy("open_loop")
    assert policy.cwnd == math.inf
