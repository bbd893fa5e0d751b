"""The Figure 1 scenario must match the paper's caption exactly."""

from dataclasses import dataclass
from typing import Dict

import pytest

from repro.api import build, specs


@dataclass
class _Bundle:
    simulator: object
    nodes: Dict[str, object]
    target: int


def _figure1_bundle(**kwargs) -> _Bundle:
    scenario = build(specs.figure1(**kwargs)).scenario
    sim = scenario.simulator
    return _Bundle(sim, dict(sim.nodes), scenario.target)


@pytest.fixture(scope="module")
def bundle():
    return _figure1_bundle(target=400, seed=9)


class TestFigure1Caption:
    def test_source_is_full(self, bundle):
        assert bundle.nodes["S"].is_source

    def test_a_b_hold_different_halves(self, bundle):
        a = bundle.nodes["A"].working_set.ids
        b = bundle.nodes["B"].working_set.ids
        assert len(a) == len(b) == bundle.target // 2
        assert not a & b  # "A, B store a different 50% of the total"

    def test_c_d_e_hold_quarters(self, bundle):
        for name in ("C", "D", "E"):
            assert len(bundle.nodes[name].working_set) == bundle.target // 4

    def test_c_d_disjoint(self, bundle):
        c = bundle.nodes["C"].working_set.ids
        d = bundle.nodes["D"].working_set.ids
        assert not c & d  # "The working sets of C and D are disjoint"

    def test_c_d_within_a(self, bundle):
        # In the figure, C and D hang off A's subtree: their content is
        # a partition of A's half.
        a = bundle.nodes["A"].working_set.ids
        c = bundle.nodes["C"].working_set.ids
        d = bundle.nodes["D"].working_set.ids
        assert c <= a and d <= a
        assert c | d == a

    def test_e_within_b(self, bundle):
        b = bundle.nodes["B"].working_set.ids
        e = bundle.nodes["E"].working_set.ids
        assert e <= b

    def test_tree_edges_match_figure(self):
        bundle = _figure1_bundle(target=200, seed=1, with_perpendicular=False)
        edges = set(bundle.simulator.connections)
        assert edges == {("S", "A"), ("S", "B"), ("A", "C"), ("A", "D"), ("B", "E")}

    def test_perpendicular_edges_admitted(self, bundle):
        # With complementary working sets, the Figure 1(c) edges pass
        # sketch admission and exist in the topology.
        edges = set(bundle.simulator.connections)
        assert ("B", "A") in edges  # B's half is all new to A
        assert ("C", "D") in edges and ("D", "C") in edges  # disjoint quarters
