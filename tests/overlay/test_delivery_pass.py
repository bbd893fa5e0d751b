"""The delivery pass walks only connections into incomplete receivers.

Completion is final inside a simulator, and it is an event: the
simulator reads ``is_complete`` when a node joins and after a useful
arrival, and when a receiver completes its incoming edges leave the
pass and never come back.  These rows pin that contract at its edges — a receiver that
completes partway through a pass, a catalog node completing object by
object, a completed receiver whose working set is replaced, a node
added complete, a node removed and re-added while incomplete — the
walk's order when an edge is dropped and re-made, and where the reads
of ``is_complete`` are made.  Parity with a full walk that polls
``is_complete`` over the seeded catalog is
``tests/overlay/test_incremental.py::TestFullWalkParity``.
"""

import random
import sys
from collections import Counter

from repro.api import run
from repro.api.registry import small_spec
from repro.delivery.working_set import WorkingSet
from repro.overlay import OverlayNode, OverlaySimulator
from repro.overlay.catalog import CatalogNode, ObjectCatalog
from repro.sim.links import ConstantRateLink

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
        link.send_budget = lambda t0, t1, ctrl=None: budgets.append(t0) or 1
        assert _fed(sim, "peer") == []
        _ticks(sim, 5)
        assert budgets == [] and sim.packets_sent == 0
        assert peer.completed_at_tick is None

    def test_a_replaced_set_keeps_run_from_waiting_on_it(self):
        """``run()`` waits on members that have not completed; a member
        whose set shrank after it completed is not one of them, while
        ``report()`` still reads every set as it is."""
        sim, peer = _swarm()
        while not peer.is_complete:
            sim.tick()
        peer.working_set = WorkingSet([0])
        ticks = sim.tick_count
        report = sim.run(max_ticks=50)
        assert report.ticks == ticks
        assert report.all_complete is False
        assert report.completion_ticks["peer"] == peer.completed_at_tick

    def test_a_late_arrival_after_completion_adds_nothing(self):
        """A packet still in flight when its receiver completes lands
        on a receiver whose ``completed_at_tick`` is set: it is dropped
        even if the set has since shrunk below target."""
        sim = OverlaySimulator(
            strategy_name="Random",
            rng=random.Random(5),
            link_factory=lambda chars, s, r: ConstantRateLink(1.0, latency=1.5),
        )
        sim.add_node(OverlayNode("src", TARGET, is_source=True))
        sim.add_node(OverlayNode("peer", TARGET))
        assert sim.connect("src", "peer")
        peer = sim.nodes["peer"]
        while not peer.is_complete:
            sim.tick()
        assert sim.scheduler.pending_oneshot > 0  # a packet still in flight
        peer.working_set = WorkingSet([0])
        useful = sim.packets_useful
        _ticks(sim, 3)
        assert sim.scheduler.pending_oneshot == 0
        assert sim.packets_useful == useful and len(peer.working_set) == 1

    def test_a_node_added_complete_is_not_waited_on(self):
        sim, peer = _swarm(complete_peer=True)
        report = sim.run(max_ticks=50)
        assert report.ticks == 0 and report.all_complete
        assert peer.completed_at_tick is None

    def test_a_receiver_completing_mid_pass_stops_its_other_edges(self):
        """Two sources feed one peer at its whole target per tick: the
        first edge's inline arrivals complete it, its send loop breaks
        at the completing packet, and the second edge — already in the
        pass's list — is skipped."""
        sim = OverlaySimulator(
            strategy_name="Random",
            rng=random.Random(5),
            link_factory=lambda chars, s, r: ConstantRateLink(2.0 * TARGET),
        )
        sim.add_node(OverlayNode("a", TARGET, is_source=True))
        sim.add_node(OverlayNode("b", TARGET, is_source=True, fresh_id_start=10**9))
        sim.add_node(OverlayNode("peer", TARGET))
        assert sim.connect("a", "peer") and sim.connect("b", "peer")
        assert len(_fed(sim, "peer")) == 2
        sim.tick()
        peer = sim.nodes["peer"]
        assert peer.is_complete and peer.completed_at_tick == 1
        assert sim.packets_sent == TARGET == sim.packets_useful
        assert _fed(sim, "peer") == []
        assert not any(c.feeding for c in sim.connections.values())
        assert sim.run().ticks == 1

    def test_a_catalog_node_completes_when_its_last_object_does(self):
        """Holding more ids than its whole target, all of one object,
        does not complete a catalog node: its own ``is_complete`` (per
        object) is the completion event's test, not a count."""
        catalog = ObjectCatalog(
            targets=[3, 3], distinct=[8, 8], priorities=[1.0, 1.0],
            demand_shares=[0.5, 0.5],
        )
        sim = OverlaySimulator(strategy_name="Random", rng=random.Random(7))
        sim.add_node(OverlayNode("a", 64, initial_ids=catalog.symbol_ids(0)))
        sim.add_node(OverlayNode("b", 64, initial_ids=catalog.symbol_ids(1)))
        node = CatalogNode("c", catalog, demand=(0, 1))
        sim.add_node(node)
        assert node.target == 6
        assert sim.connect("a", "c")
        _ticks(sim, 40)
        assert node.progress_of(0) == 8 and len(node.working_set) > node.target
        assert not node.is_complete and node.completed_at_tick is None
        assert len(_fed(sim, "c")) == 1
        assert sim.connect("b", "c")
        while node.completed_at_tick is None:
            sim.tick()
        assert node.progress_of(1) == 3 and node.is_complete
        assert _fed(sim, "c") == []

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


def _spy_on_completion_reads(mp):
    """Count ``OverlayNode.is_complete`` reads by the function reading."""
    reads = Counter()
    is_complete = OverlayNode.is_complete.fget

    def counted(node):
        reads[sys._getframe(1).f_code.co_qualname] += 1
        return is_complete(node)

    mp.setattr(OverlayNode, "is_complete", property(counted))
    return reads


class TestCompletionReads:
    """Where the congested small spec reads ``is_complete``: once per
    node joining, once per useful arrival and once per node in the
    closing report — and never in the delivery pass, its send loop, the
    refresh, an epoch's choice of receivers (``_incomplete``) or
    ``run()``'s loop."""

    NODES = 11

    READS = {
        "OverlaySimulator._settle": 144,
        "OverlaySimulator._all_complete.<locals>.<genexpr>": 11,
    }

    def test_congested_swarm(self, monkeypatch):
        reads = _spy_on_completion_reads(monkeypatch)
        result = run(small_spec("congested_swarm"))
        assert dict(reads) == self.READS
        useful = result.metrics["packets_useful"]
        assert reads["OverlaySimulator._settle"] == self.NODES + useful
