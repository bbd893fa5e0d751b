"""The simulator's own edge book: the connection map and its sender index.

The index replaces a graph library's in-edge view, and rewiring reads a
receiver's senders in its order — so the order is part of the seeded
contract: oldest edge first, a dropped and re-made edge last.
"""

import random

import pytest

from repro.overlay import OverlayNode, OverlaySimulator
from repro.topology import UNIT_PATH, PathModel


def _sim(*peers, **kwargs):
    sim = OverlaySimulator(rng=random.Random(1), **kwargs)
    sim.add_node(OverlayNode("src", 40, is_source=True))
    for i, name in enumerate(peers):
        sim.add_node(
            OverlayNode(name, 40, initial_ids=range(i * 10, i * 10 + 10),
                        max_connections=8)
        )
    return sim


class TestSenderIndex:
    def test_senders_come_back_in_edge_creation_order(self):
        sim = _sim("a", "b", "c")
        for sender in ("b", "src", "a"):
            assert sim.connect(sender, "c")
        assert sim.senders_of("c") == ["b", "src", "a"]
        assert sim.senders_of("a") == []
        assert sim.senders_of("nobody") == []

    def test_dropped_and_remade_edge_moves_to_the_end(self):
        sim = _sim("a", "b", "c")
        for sender in ("b", "src", "a"):
            sim.connect(sender, "c")
        sim.disconnect("b", "c")
        assert sim.senders_of("c") == ["src", "a"]
        sim.connect("b", "c")
        assert sim.senders_of("c") == ["src", "a", "b"]
        assert list(sim.connections) == [("src", "c"), ("a", "c"), ("b", "c")]

    def test_refused_and_duplicate_connections_leave_no_trace(self):
        sim = _sim("a", "b")
        assert sim.connect("a", "b")
        assert not sim.connect("a", "b")  # already connected
        assert not sim.connect("a", "src")  # sources never receive
        assert sim.senders_of("b") == ["a"]
        assert sim.senders_of("src") == []
        sim.disconnect("b", "a")  # never existed: a no-op
        assert list(sim.connections) == [("a", "b")]

    def test_remove_node_drops_edges_in_both_directions(self):
        sim = _sim("a", "b", "c")
        for sender, receiver in (
            ("src", "a"), ("b", "a"), ("a", "b"), ("a", "c"), ("src", "c"), ("b", "c"),
        ):
            assert sim.connect(sender, receiver)
        sim.remove_node("a")
        assert list(sim.connections) == [("src", "c"), ("b", "c")]
        assert sim.senders_of("a") == []
        assert sim.senders_of("b") == []
        assert sim.senders_of("c") == ["src", "b"]

    def test_rejoining_node_starts_with_a_fresh_sender_list(self):
        sim = _sim("a", "b", "c")
        sim.connect("b", "a")
        sim.connect("c", "a")
        node = sim.remove_node("a")
        sim.add_node(node)
        sim.connect("c", "a")
        sim.connect("b", "a")
        assert sim.senders_of("a") == ["c", "b"]

    def test_index_matches_the_connection_map_after_a_rewiring_run(self):
        from repro.api import build, specs

        sim = build(
            specs.random_overlay(num_peers=10, target=80, seed=4, with_physical=False)
        ).scenario.simulator
        sim.run(max_ticks=2_000)
        assert sim.reconfigurations > 0
        by_receiver = {}
        for sender, receiver in sim.connections:
            by_receiver.setdefault(receiver, []).append(sender)
        for receiver in sim.nodes:
            assert sorted(sim.senders_of(receiver)) == sorted(
                by_receiver.get(receiver, [])
            )


class TestConnect:
    def test_self_connection_rejected(self):
        sim = _sim("a")
        with pytest.raises(ValueError, match="itself"):
            sim.connect("a", "a")
        assert not sim.connections

    def test_no_path_model_means_the_unit_path(self):
        sim = _sim("a")
        sim.connect("src", "a")
        conn = sim.connections[("src", "a")]
        assert (conn.bandwidth, conn.loss_rate) == (
            UNIT_PATH.bandwidth, UNIT_PATH.loss_rate,
        ) == (1.0, 0.0)

    def test_connection_takes_its_physical_path(self):
        net = PathModel()
        net.add_link("r0", "r1", bandwidth=3.0, loss_rate=0.1)
        net.attach_host("src", "r0", bandwidth=9.0)
        net.attach_host("a", "r1", bandwidth=5.0)
        sim = _sim("a", paths=net)
        sim.connect("src", "a")
        conn = sim.connections[("src", "a")]
        assert conn.bandwidth == 3.0
        assert conn.loss_rate == pytest.approx(0.1)
        assert conn.link.rate == 3.0
