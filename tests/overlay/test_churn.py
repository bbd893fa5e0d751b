"""Tests for churn injection and survivability (Section 2.1)."""

import random

import pytest

from repro.api import build, specs
from repro.overlay import (
    ChurnProcess,
    OverlayNode,
    OverlaySimulator,
    run_with_churn,
)
from repro.topology import PathModel


def _random_overlay_sim(**kwargs):
    return build(specs.random_overlay(**kwargs)).scenario.simulator


def small_sim(seed=1, target=80, peers=4):
    sim = OverlaySimulator(rng=random.Random(seed))
    sim.add_node(OverlayNode("src", target, is_source=True))
    for i in range(peers):
        sim.add_node(OverlayNode(f"p{i}", target))
        sim.connect("src", f"p{i}")
    return sim


def routed_sim():
    """src and near share router r0; far sits across the r0-r1 trunk."""
    net = PathModel()
    net.add_link("r0", "r1", bandwidth=4.0, loss_rate=0.01)
    net.attach_host("src", "r0", bandwidth=9.0)
    net.attach_host("near", "r0", bandwidth=9.0)
    net.attach_host("far", "r1", bandwidth=9.0)
    sim = OverlaySimulator(rng=random.Random(1), paths=net)
    sim.add_node(OverlayNode("src", 50, is_source=True))
    for name in ("near", "far"):
        sim.add_node(OverlayNode(name, 50))
        sim.connect("src", name)
    return sim, net


class TestReroute:
    def test_surviving_connection_carries_the_degraded_path(self):
        sim, net = routed_sim()
        conn = sim.connections[("src", "far")]
        assert conn.link.loss_rate == pytest.approx(0.01)
        net.degrade_link("r0", "r1", 0.1)  # worse, but under the drop threshold
        ChurnProcess(sim).sim_reroute()
        assert sim.connections[("src", "far")] is conn
        assert conn.loss_rate == pytest.approx(0.1)
        assert conn.link.loss_rate == pytest.approx(0.1)
        # ...and packets really are lost at the new rate.
        sim.run(max_ticks=400)
        assert sim.packets_lost > 0

    def test_bandwidth_refresh_reaches_the_live_link(self):
        sim, net = routed_sim()
        net.add_link("r0", "r1", bandwidth=2.0, loss_rate=0.01)
        ChurnProcess(sim).sim_reroute()
        assert sim.connections[("src", "far")].link.rate == 2.0
        assert sim.connections[("src", "near")].link.rate == 9.0

    def test_degraded_connection_is_dropped_from_map_and_index(self):
        sim, net = routed_sim()
        net.degrade_link("r0", "r1", 0.5)
        ChurnProcess(sim).sim_reroute()
        assert list(sim.connections) == [("src", "near")]
        assert sim.senders_of("far") == []
        assert sim.senders_of("near") == ["src"]
        # The dropped edge can be made again once the path recovers.
        net.degrade_link("r0", "r1", 0.0)
        assert sim.connect("src", "far")

    def test_no_path_model_is_a_no_op(self):
        sim = small_sim()
        before = dict(sim.connections)
        ChurnProcess(sim).sim_reroute()
        assert sim.connections == before


class TestChurnProcess:
    def test_validation(self):
        sim = small_sim()
        with pytest.raises(ValueError):
            ChurnProcess(sim, leave_probability=1.5)
        with pytest.raises(ValueError):
            ChurnProcess(sim, rejoin_after=0)

    def test_departure_removes_node_and_connections(self):
        sim = small_sim(seed=2)
        churn = ChurnProcess(
            sim, leave_probability=1.0, rejoin_after=50, rng=random.Random(3)
        )
        churn.step()
        assert len(churn.departed) == 4  # every peer left (p=1.0)
        assert all(f"p{i}" not in sim.nodes for i in range(4))
        assert not sim.connections

    def test_protected_nodes_never_leave(self):
        sim = small_sim(seed=4)
        churn = ChurnProcess(
            sim, leave_probability=1.0, rejoin_after=10,
            protect={"p0"}, rng=random.Random(5),
        )
        churn.step()
        assert "p0" in sim.nodes
        assert "p0" not in churn.departed

    def test_rejoin_restores_node_with_working_set(self):
        sim = small_sim(seed=6)
        # Let p0 accumulate some symbols first.
        for _ in range(20):
            sim.tick()
        held_before = len(sim.nodes["p0"].working_set)
        assert held_before > 0
        churn = ChurnProcess(
            sim, leave_probability=1.0, rejoin_after=5, rng=random.Random(7)
        )
        churn.step()
        assert "p0" not in sim.nodes
        for _ in range(6):
            sim.tick()
        churn.leave_probability = 0.0  # stop re-departing on rejoin
        churn.step()  # rejoin due
        assert "p0" in sim.nodes
        # Stateless rejoin: the working set survived intact (§2.3
        # time-invariance means those symbols are still valid).
        assert len(sim.nodes["p0"].working_set) >= held_before

    def test_sources_never_churn(self):
        sim = small_sim(seed=8)
        churn = ChurnProcess(sim, leave_probability=1.0, rejoin_after=5,
                             rng=random.Random(9))
        churn.step()
        assert "src" in sim.nodes


class TestRunWithChurn:
    def test_transfer_completes_despite_churn(self):
        sim = small_sim(seed=10, target=60)
        churn = ChurnProcess(
            sim, leave_probability=0.08, rejoin_after=15, rng=random.Random(11)
        )
        report = run_with_churn(sim, churn, max_ticks=4_000)
        assert report.all_complete
        assert not churn.departed
        # Churn actually happened (otherwise the test proves nothing).
        assert churn.log.departures

    def test_adaptive_scenario_with_churn_and_rewiring(self):
        sim = _random_overlay_sim(
            num_peers=6, target=100, seed=12, with_physical=False
        )
        churn = ChurnProcess(
            sim,
            leave_probability=0.05,
            rejoin_after=20,
            rng=random.Random(13),
        )
        report = run_with_churn(sim, churn, max_ticks=5_000)
        assert report.all_complete

    def test_link_degradation_triggers_reroute(self):
        sim = _random_overlay_sim(
            num_peers=5, target=80, seed=14, with_physical=True
        )
        churn = ChurnProcess(
            sim,
            leave_probability=0.0,
            degrade_probability=1.0,
            rng=random.Random(15),
        )
        run_with_churn(sim, churn, max_ticks=2_000, churn_every=3)
        assert churn.log.link_degradations
