"""The delivery pass walks only connections into incomplete receivers.

Completion is final inside a simulator: a receiver's incoming edges
leave the pass when it completes, and never come back.  These rows pin
that contract at its edges — a completed receiver whose working set is
replaced, a node added complete, a node removed and re-added while
incomplete — and the walk's order when an edge is dropped and re-made.
Parity with the full walk over the seeded catalog is
``tests/overlay/test_incremental.py::TestFullWalkParity``.
"""

import random

from repro.delivery.working_set import WorkingSet
from repro.overlay import OverlayNode, OverlaySimulator

TARGET = 5


def _swarm(complete_peer: bool = False):
    """A source feeding one peer (complete at join when asked)."""
    sim = OverlaySimulator(strategy_name="Random", rng=random.Random(5))
    sim.add_node(OverlayNode("src", TARGET, is_source=True))
    ids = range(TARGET) if complete_peer else ()
    sim.add_node(OverlayNode("peer", TARGET, initial_ids=ids))
    assert sim.connect("src", "peer")
    return sim, sim.nodes["peer"]


def _fed(sim, node_id):
    return [c for c in sim._feeding_connections() if c.receiver.node_id == node_id]


def _ticks(sim, n):
    for _ in range(n):
        sim.tick()


class TestCompletionIsFinal:
    def test_a_completed_receiver_is_not_fed_again(self):
        sim, peer = _swarm()
        while not peer.is_complete:
            sim.tick()
        completed_at, sent = peer.completed_at_tick, sim.packets_sent
        assert completed_at is not None and _fed(sim, "peer") == []
        peer.working_set = WorkingSet([0])  # smaller: no longer at target
        assert not peer.is_complete
        _ticks(sim, 5)
        assert sim.packets_sent == sent
        assert peer.completed_at_tick == completed_at
        assert _fed(sim, "peer") == []

    def test_a_node_added_complete_never_enters_the_pass(self):
        sim, peer = _swarm(complete_peer=True)
        budgets = []
        link = sim.connections[("src", "peer")].link
        link.packet_budget = lambda t0, t1: budgets.append(t0) or 1
        assert _fed(sim, "peer") == []
        _ticks(sim, 5)
        assert budgets == [] and sim.packets_sent == 0
        assert peer.completed_at_tick is None

    def test_a_node_removed_and_re_added_while_incomplete_is_fed(self):
        sim, peer = _swarm()
        sim.tick()
        assert not peer.is_complete
        assert sim.remove_node("peer") is peer
        sim.add_node(peer)
        assert _fed(sim, "peer") == []  # no edge yet
        assert sim.connect("src", "peer")
        assert len(_fed(sim, "peer")) == 1
        while not peer.is_complete:
            sim.tick()
        assert peer.completed_at_tick is not None
        assert sim.packets_useful == TARGET

    def test_a_dropped_edge_leaves_the_pass_and_a_re_made_one_moves_last(self):
        sim, peer = _swarm()
        sim.add_node(OverlayNode("other", TARGET))
        assert sim.connect("src", "other")
        sim.disconnect("src", "peer")
        assert [c.receiver.node_id for c in sim._feeding_connections()] == ["other"]
        assert sim.connect("src", "peer")
        walked = [c.receiver.node_id for c in sim._feeding_connections()]
        assert walked == ["other", "peer"]
        assert walked == [c.receiver.node_id for c in sim.connections.values()]
