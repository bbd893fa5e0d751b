"""The rtx manager's earliest-deadline bound against a full scan.

:class:`~repro.transport.rtx.RtxManager` skips its timeout scan while
``now`` is below ``next_deadline``.  A Hypothesis state machine drives
``track`` / ``ack`` / ``observe_rtt`` / ``expire`` with a clock that
never runs backwards and checks each ``expire`` against a plain model:
the same seqs in the same order as a scan of every outstanding packet,
with ``timeouts`` and ``inflight`` in step and the bound never above
the earliest outstanding deadline.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.transport.rtx import RtxManager


class RtxBoundMachine(RuleBasedStateMachine):
    @initialize(
        rto_min=st.sampled_from([0.25, 1.0, 2.0]),
        rto_max=st.sampled_from([4.0, 64.0]),
    )
    def start(self, rto_min, rto_max):
        self.rtx = RtxManager(rto_min, rto_max)
        self.now = 0.0
        self.next_seq = 0
        #: seq -> (sent_at, deadline), in send order
        self.outstanding = {}
        self.timeouts = 0

    @rule(dt=st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 10.0]))
    def advance(self, dt):
        self.now += dt

    @rule()
    def track(self):
        seq = self.next_seq
        self.next_seq += 1
        self.outstanding[seq] = (self.now, self.now + self.rtx.rto)
        self.rtx.track(seq, self.now)

    @rule(data=st.data())
    def ack(self, data):
        if self.next_seq == 0:
            return
        # Any seq ever sent: an expired or acked one carries no information.
        seq = data.draw(st.integers(0, self.next_seq - 1))
        entry = self.outstanding.pop(seq, None)
        assert self.rtx.ack(seq) == (entry[0] if entry else None)

    # Coarse samples so the RTO often shrinks between two sends: a later
    # send can then carry the earliest deadline.
    @rule(rtt=st.sampled_from([0.001, 0.1, 0.5, 2.0, 10.0, 40.0]))
    def observe_rtt(self, rtt):
        self.rtx.observe_rtt(rtt)

    @rule()
    def expire(self):
        scanned = [
            (seq, sent_at)
            for seq, (sent_at, deadline) in self.outstanding.items()
            if deadline <= self.now
        ]
        for seq, _ in scanned:
            del self.outstanding[seq]
        self.timeouts += len(scanned)
        assert self.rtx.expire(self.now) == scanned

    @invariant()
    def counters_agree(self):
        if not hasattr(self, "rtx"):
            return
        assert self.rtx.timeouts == self.timeouts
        assert self.rtx.inflight == len(self.outstanding)
        earliest = min(
            (deadline for _, deadline in self.outstanding.values()),
            default=math.inf,
        )
        assert self.rtx.next_deadline <= earliest


RtxBoundMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestRtxBound = RtxBoundMachine.TestCase


def test_nothing_due_skips_the_scan():
    rtx = RtxManager(rto_min=2.0)
    for seq in range(8):
        rtx.track(seq, 0.0)
    assert rtx.next_deadline == 4.0
    rtx._outstanding = None  # a scan would fail
    assert rtx.expire(3.999) == []


def test_a_send_after_the_rto_shrank_lowers_the_bound():
    rtx = RtxManager(rto_min=4.0, rto_max=64.0)
    rtx.track(0, 0.0)  # deadline 8.0: no sample yet, RTO 2 * rto_min
    rtx.observe_rtt(0.001)  # RTO clamps to rto_min
    rtx.track(1, 0.0)  # deadline 4.0
    assert rtx.next_deadline == 4.0
    assert rtx.expire(5.0) == [(1, 0.0)]


def test_a_scan_recomputes_the_bound_and_an_ack_leaves_it():
    rtx = RtxManager(rto_min=1.0, rto_max=64.0)
    rtx.track(0, 0.0)  # deadline 2.0
    rtx.observe_rtt(10.0)  # RTO 30
    rtx.track(1, 1.0)  # deadline 31.0
    assert rtx.next_deadline == 2.0
    assert rtx.ack(0) == 0.0
    assert rtx.next_deadline == 2.0  # loose, never wrong
    assert rtx.expire(2.0) == []
    assert rtx.next_deadline == 31.0
    assert rtx.expire(31.0) == [(1, 1.0)]
    assert rtx.next_deadline == math.inf
