"""The physical path model: what a virtual connection inherits."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.topology import PathModel, TopologyError, generate

SRC = Path(__file__).resolve().parents[2] / "src"


def small_network():
    net = PathModel()
    net.add_link("r0", "r1", bandwidth=10, loss_rate=0.01)
    net.add_link("r1", "r2", bandwidth=5, loss_rate=0.02)
    net.attach_host("a", "r0", bandwidth=8)
    net.attach_host("b", "r2", bandwidth=20)
    return net


class TestPathCharacteristics:
    def test_bottleneck_bandwidth_and_hops(self):
        chars = small_network().path_characteristics("a", "b")
        assert chars.bandwidth == 5  # r1-r2 is the bottleneck
        assert chars.hops == 4

    def test_loss_composes_along_the_path(self):
        chars = small_network().path_characteristics("a", "b")
        assert chars.loss_rate == pytest.approx(1 - (1 - 0.01) * (1 - 0.02))

    def test_unknown_endpoints_and_split_networks_are_typed_errors(self):
        net = small_network()
        with pytest.raises(TopologyError, match="unknown node"):
            net.path_characteristics("a", "nobody")
        net.add_link("x", "y", bandwidth=1)
        with pytest.raises(TopologyError, match="no path"):
            net.path_characteristics("a", "x")


class TestLinks:
    def test_attach_to_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            small_network().attach_host("c", "r99", bandwidth=1)

    def test_link_validation(self):
        net = PathModel()
        with pytest.raises(ValueError):
            net.add_link("x", "y", bandwidth=0)
        with pytest.raises(ValueError):
            net.add_link("x", "y", bandwidth=1, loss_rate=1.0)

    def test_hosts_are_not_routers(self):
        net = small_network()
        assert net.routers() == ["r0", "r1", "r2"]
        assert sorted(net.links()) == [
            ("a", "r0"), ("b", "r2"), ("r0", "r1"), ("r1", "r2"),
        ]

    def test_degrade_link_raises_path_loss_in_both_directions(self):
        net = small_network()
        net.degrade_link("r2", "r1", loss_rate=0.5)
        assert net.path_characteristics("a", "b").loss_rate > 0.5
        assert net.path_characteristics("b", "a").loss_rate > 0.5

    def test_degrade_link_range_and_missing_edge(self):
        net = small_network()
        with pytest.raises(ValueError, match="no link"):
            net.degrade_link("r0", "r9", 0.1)
        with pytest.raises(ValueError, match="no link"):
            net.degrade_link("r0", "r2", 0.1)  # both known, not adjacent
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError, match="loss rate"):
                net.degrade_link("r0", "r1", bad)


class TestSharedLinks:
    def test_redundant_mapping_is_visible(self):
        # Section 1: "overlay-based approaches may redundantly map
        # multiple virtual paths onto the same network path".
        net = small_network()
        net.attach_host("c", "r0", bandwidth=8)
        # a->b and c->b both traverse r0-r1-r2 (and b's access link).
        assert net.shared_links(("a", "b"), ("c", "b")) >= 2
        assert net.shared_links(("a", "c"), ("b", "r2")) == 0


class TestShortestPath:
    #: A diamond with two equal-length routes s-m1-t and s-m2-t.
    DIAMOND = [("s", "m2"), ("m2", "t"), ("s", "m1"), ("m1", "t")]

    @staticmethod
    def _net(edges):
        net = PathModel()
        for a, b in edges:
            net.add_link(a, b, bandwidth=1)
        return net

    def test_ties_break_by_id_not_insertion_order(self):
        rng = random.Random(0)
        paths = set()
        for _ in range(6):
            edges = [e if rng.random() < 0.5 else e[::-1] for e in self.DIAMOND]
            rng.shuffle(edges)
            paths.add(tuple(self._net(edges).shortest_path("s", "t")))
        assert paths == {("s", "m1", "t")}

    def test_fewest_hops_wins_over_small_ids(self):
        net = self._net([("a", "b"), ("b", "c"), ("c", "z"), ("a", "y"), ("y", "z")])
        assert net.shortest_path("a", "z") == ["a", "y", "z"]
        assert net.shortest_path("a", "a") == ["a"]


class TestOverGeneratedCore:
    def test_every_core_edge_becomes_a_router_link(self):
        core = generate("scale_free", 12, seed=3, attach=2)
        net = PathModel.over(core, random.Random(3))
        assert sorted(net.routers()) == sorted(f"r{i}" for i in range(core.n))
        assert len(net.links()) == len(core.edges)
        chars = net.path_characteristics("r0", f"r{core.n - 1}")
        assert 2.0 <= chars.bandwidth <= 10.0
        assert 0.0 <= chars.loss_rate < 1.0

    def test_same_seed_same_network(self):
        def build():
            core = generate("scale_free", 10, seed=5, attach=2)
            net = PathModel.over(core, random.Random(5))
            return [net.path_characteristics("r0", f"r{i}") for i in range(1, 10)]

        assert build() == build()


def test_importing_the_library_loads_nothing_undeclared():
    # Every module `import repro.api` pulls in is the standard library's
    # or our own (numpy is the one declared, optional, extra).
    code = """
import sys
before = set(sys.modules)
import repro.api, repro.campaign, repro.overlay, repro.topology
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
loaded.discard("__mp_main__")  # multiprocessing's alias of __main__
undeclared = loaded - set(sys.stdlib_module_names) - {"repro", "numpy"}
assert not undeclared, sorted(undeclared)
"""
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)}
    )
