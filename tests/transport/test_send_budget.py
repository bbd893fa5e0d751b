"""The one step per connection-window equals its two halves.

:meth:`repro.sim.links.ConstantRateLink.send_budget` runs the link's
credit step and, under a controller, the timeout scan (only once one
can be due) and the window cap.  It must leave exactly what
``ctrl.allowance(t1, link.packet_budget(t0, t1))`` leaves: the same
budget, the same link credit, the same in-flight count, rtx table,
deadline bound and policy state.  Hypothesis drives twin links and
controllers through the same sends, acks and windows for every
registered policy.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.links import ConstantRateLink, drain_credit
from repro.transport import RtxManager, TransportController, build_policy
from repro.transport import transport_policies

POLICIES = transport_policies()

#: Zero, fractional, whole and irrational-looking rates.
RATES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 1.0, 2.5, 7.0]),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)

#: A clock that need not sit on integers: an ``_epoch`` offset plus
#: window lengths, as a simulator sharing a clock sees them.
OFFSETS = st.sampled_from([0.0, 0.1, 0.3, 1e6 + 0.7, 2.0**40 + 0.5])
WINDOWS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.7])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(1, 6)),
        st.tuples(st.just("ack"), st.integers(0, 40), st.floats(0.0, 5.0)),
        st.tuples(st.just("window"), WINDOWS),
        st.tuples(st.just("inflight"), st.integers(0, 12)),
    ),
    min_size=1,
    max_size=40,
)


def _twin(kind, rate, rto_min):
    link = ConstantRateLink(rate)
    ctrl = TransportController(build_policy(kind), RtxManager(rto_min, 64.0))
    return link, ctrl


def _state(link, ctrl):
    return (
        link._credit,
        ctrl.inflight,
        ctrl.sent,
        ctrl.acked,
        ctrl.timeouts,
        dict(ctrl.rtx._outstanding),
        ctrl.rtx.next_deadline,
        ctrl.rtx.rto,
        vars(ctrl.policy),
    )


@pytest.mark.parametrize("kind", POLICIES)
@settings(max_examples=150, deadline=None)
@given(
    rate=RATES,
    offset=OFFSETS,
    rto_min=st.sampled_from([0.5, 1.0, 2.0]),
    ops=OPS,
)
def test_send_budget_equals_allowance_of_packet_budget(
    kind, rate, offset, rto_min, ops
):
    fused_link, fused = _twin(kind, rate, rto_min)
    ref_link, ref = _twin(kind, rate, rto_min)
    now = offset
    for op in ops:
        if op[0] == "send":
            for _ in range(op[1]):
                assert fused.on_send(now) == ref.on_send(now)
        elif op[0] == "ack":
            _, seq, later = op
            fused.on_ack(now + later, seq)
            ref.on_ack(now + later, seq)
        elif op[0] == "inflight":
            # Push the in-flight count past (or under) the window.
            fused.inflight = ref.inflight = op[1]
        else:
            t0, now = now, now + op[1]
            budget = fused_link.send_budget(t0, now, fused)
            assert budget == ref.allowance(now, ref_link.packet_budget(t0, now))
        assert _state(fused_link, fused) == _state(ref_link, ref)


@pytest.mark.parametrize("kind", POLICIES)
def test_a_due_deadline_scans_and_an_undue_one_does_not(kind):
    """Both branches, pinned by hand: a window before the earliest
    deadline caps without scanning; the window that reaches it scans,
    and what it frees is usable in that same window."""
    link, ctrl = _twin(kind, 3.0, 2.0)
    for _ in range(4):
        ctrl.on_send(0.0)
    deadline = ctrl.rtx.next_deadline
    assert deadline == 4.0  # 2 * rto_min before any RTT sample
    expected = 3 if ctrl.policy.cwnd == math.inf else 0
    assert link.send_budget(0.0, 1.0, ctrl) == expected
    assert ctrl.timeouts == 0 and len(ctrl.rtx._outstanding) == 4
    link.send_budget(1.0, deadline, ctrl)
    assert ctrl.timeouts == 4 and ctrl.inflight == 0
    assert ctrl.rtx.next_deadline == math.inf


def test_without_a_controller_it_is_the_credit_step():
    link = ConstantRateLink(0.3)
    credit, got, want = 0.0, [], []
    for t in range(20):
        got.append(link.send_budget(t + 0.1, t + 1.1))
        whole, credit = drain_credit(credit, 0.3 * ((t + 1.1) - (t + 0.1)))
        want.append(whole)
        assert link._credit == credit
    assert got == want


def test_a_backward_window_is_refused():
    link, ctrl = _twin("aimd", 1.0, 2.0)
    with pytest.raises(ValueError, match="forward"):
        link.send_budget(2.0, 1.0, ctrl)
