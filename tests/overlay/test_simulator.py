"""Tests for overlay nodes, policies, and the tick simulator."""

import random

import pytest

from repro.api import build, specs
from repro.delivery.working_set import DEFAULT_KEY_UNIVERSE
from repro.hashing.permutations import PermutationFamily
from repro.overlay import (
    OverlayNode,
    OverlaySimulator,
    SketchAdmission,
    UtilityRewiring,
    default_scheme,
)


def _oracle_minima(node, scheme):
    """The node's card minima by the §4 definition, from scratch: one
    scalar minimum per permutation over the folded ids."""
    params = scheme.params_dict()
    universe = params.get("universe", DEFAULT_KEY_UNIVERSE)
    family = PermutationFamily(params["entries"], universe, seed=params["seed"])
    ids = sorted({i % universe for i in node.working_set.ids})
    return [perm.min_over(ids) for perm in family]


def _figure1_sim(**kwargs):
    return build(specs.figure1(**kwargs)).scenario.simulator


def _random_overlay_sim(**kwargs):
    return build(specs.random_overlay(**kwargs)).scenario.simulator


class TestOverlayNode:
    def test_completion(self):
        n = OverlayNode("x", target=3, initial_ids=[1, 2])
        assert not n.is_complete
        assert n.receive_symbol(3)
        assert n.is_complete

    def test_source_always_complete(self):
        s = OverlayNode("s", target=100, is_source=True)
        assert s.is_complete
        assert s.mint_fresh_id() != s.mint_fresh_id()

    def test_non_source_cannot_mint(self):
        n = OverlayNode("x", target=10)
        with pytest.raises(RuntimeError):
            n.mint_fresh_id()

    def test_sketch_refreshes_after_updates(self):
        scheme = default_scheme()
        n = OverlayNode("x", target=10, initial_ids=[1, 2, 3])
        assert scheme.card_of(n).minima == _oracle_minima(n, scheme)
        n.receive_symbol(999_999)
        # The minima may or may not move, but the card must reflect the
        # new set exactly:
        assert scheme.card_of(n).minima == _oracle_minima(n, scheme)

    def test_usefulness_identical_vs_disjoint(self):
        scheme = default_scheme()
        a = OverlayNode("a", 10, initial_ids=range(100))
        twin = OverlayNode("t", 10, initial_ids=range(100))
        stranger = OverlayNode("s", 10, initial_ids=range(1000, 1100))
        assert scheme.usefulness(a, twin) == pytest.approx(0.0)
        assert scheme.usefulness(a, stranger) > 0.9
        # Exactly the definition's floats, not merely close to them.
        mine = _oracle_minima(a, scheme)
        for other in (twin, stranger):
            theirs = _oracle_minima(other, scheme)
            matches = sum(m == t for m, t in zip(mine, theirs))
            assert scheme.usefulness(a, other) == 1.0 - matches / len(mine)
        assert scheme.usefulness(a, OverlayNode("src", 10, is_source=True)) == 1.0


class TestAdmission:
    def test_rejects_identical_content(self):
        policy = SketchAdmission(default_scheme(), min_usefulness=0.05)
        a = OverlayNode("a", 10, initial_ids=range(200))
        twin = OverlayNode("t", 10, initial_ids=range(200))
        assert not policy.admit(a, twin)

    def test_admits_source_always(self):
        policy = SketchAdmission(default_scheme())
        a = OverlayNode("a", 10, initial_ids=range(200))
        src = OverlayNode("s", 10, is_source=True)
        assert policy.admit(a, src)

    def test_admits_complementary_peer(self):
        policy = SketchAdmission(default_scheme())
        a = OverlayNode("a", 10, initial_ids=range(200))
        b = OverlayNode("b", 10, initial_ids=range(500, 700))
        assert policy.admit(a, b)

    def test_rejects_empty_candidate(self):
        policy = SketchAdmission(default_scheme())
        a = OverlayNode("a", 10, initial_ids=range(10))
        empty = OverlayNode("e", 10)
        assert not policy.admit(a, empty)


class TestRewiring:
    def test_fills_free_slots_first(self):
        policy = UtilityRewiring(default_scheme())
        recv = OverlayNode("r", 100, initial_ids=range(50), max_connections=2)
        c1 = OverlayNode("c1", 100, initial_ids=range(100, 150))
        drops, adds = policy.rewire(recv, [], [recv, c1])
        assert drops == []
        assert [a.node_id for a in adds] == ["c1"]

    def test_swaps_only_with_hysteresis_margin(self):
        policy = UtilityRewiring(default_scheme(), hysteresis=0.1)
        recv = OverlayNode("r", 100, initial_ids=range(50), max_connections=1)
        current = OverlayNode("cur", 100, initial_ids=range(50))  # useless twin
        better = OverlayNode("new", 100, initial_ids=range(500, 550))
        drops, adds = policy.rewire(recv, [current], [current, better])
        assert [d.node_id for d in drops] == ["cur"]
        assert [a.node_id for a in adds] == ["new"]

    def test_no_swap_between_equivalent_senders(self):
        policy = UtilityRewiring(default_scheme(), hysteresis=0.1)
        recv = OverlayNode("r", 100, initial_ids=range(50), max_connections=1)
        cur = OverlayNode("cur", 100, initial_ids=range(500, 550))
        alt = OverlayNode("alt", 100, initial_ids=range(600, 650))
        drops, adds = policy.rewire(recv, [cur], [cur, alt])
        assert drops == [] and adds == []


class TestSimulator:
    def test_source_to_single_peer(self):
        sim = OverlaySimulator(rng=random.Random(4))
        sim.add_node(OverlayNode("s", 50, is_source=True))
        sim.add_node(OverlayNode("p", 50))
        assert sim.connect("s", "p")
        report = sim.run(max_ticks=200)
        assert report.all_complete
        assert report.completion_ticks["p"] is not None

    def test_duplicate_node_rejected(self):
        sim = OverlaySimulator(rng=random.Random(0))
        sim.add_node(OverlayNode("x", 10))
        with pytest.raises(ValueError):
            sim.add_node(OverlayNode("x", 10))

    def test_admission_blocks_connection(self):
        sim = OverlaySimulator(
            admission=SketchAdmission(default_scheme()),
            rng=random.Random(5),
        )
        sim.add_node(OverlayNode("a", 10, initial_ids=range(100)))
        sim.add_node(OverlayNode("b", 10, initial_ids=range(100)))
        assert not sim.connect("a", "b")  # identical content rejected

    def test_figure1_collaboration_beats_tree(self):
        collab = _figure1_sim(target=200).run(max_ticks=2000)
        tree = _figure1_sim(target=200, with_perpendicular=False).run(
            max_ticks=2000
        )
        assert collab.all_complete and tree.all_complete
        assert collab.ticks < tree.ticks  # the paper's Figure 1 argument

    def test_random_overlay_completes_with_rewiring(self):
        report = _random_overlay_sim(num_peers=6, target=150, seed=8).run(
            max_ticks=2000
        )
        assert report.all_complete
        assert report.reconfigurations > 0  # adaptation actually happened

    def test_report_efficiency_bounds(self):
        report = _figure1_sim(target=150).run(max_ticks=2000)
        assert 0.0 <= report.efficiency <= 1.0
