"""Conformance suite every registered topology generator must pass.

The registry declares each generator's contract (accepted parameters,
degree-distribution shape); this suite checks the realised graphs
against it — connectivity, deterministic replay, edge normalisation,
node-count edge cases — parametrised over ``generator_names()`` so a
newly registered generator is covered the moment it lands.
"""

import pytest

from repro.topology import (
    GeneratedTopology,
    TopologyError,
    generate,
    generator_entry,
    generator_names,
)

ALL = sorted(generator_names())


@pytest.mark.parametrize("kind", ALL)
@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_connected_at_every_size(kind, n):
    graph = generate(kind, n, seed=7)
    assert graph.n == n
    assert graph.is_connected()


@pytest.mark.parametrize("kind", ALL)
@pytest.mark.parametrize("n", [100, 1_000, 10_000])
def test_connected_at_scale(kind, n):
    assert generate(kind, n, seed=7).is_connected()


@pytest.mark.parametrize("kind", ALL)
def test_deterministic_replay(kind):
    a = generate(kind, 21, seed=5)
    b = generate(kind, 21, seed=5)
    assert a == b
    c = generate(kind, 21, seed=6)
    # A different master seed yields a different graph, except for the
    # seed-free shapes (ring; cdn_tiers is a fixed level-by-level tree).
    if kind not in ("ring", "cdn_tiers"):
        assert a.edges != c.edges


@pytest.mark.parametrize("kind", ALL)
def test_edges_normalised(kind):
    graph = generate(kind, 30, seed=11)
    assert list(graph.edges) == sorted(set(graph.edges))
    for u, v in graph.edges:
        assert 0 <= u < v < graph.n
    assert len(graph.tier) == graph.n
    assert len(graph.community) == graph.n


@pytest.mark.parametrize("kind", ALL)
def test_declared_degree_shape_is_realised(kind):
    entry = generator_entry(kind)
    graph = generate(kind, 200, seed=3)
    degrees = graph.degrees()
    if entry.degree_shape == "constant":
        assert len(set(degrees)) == 1
    elif entry.degree_shape == "heavy_tail":
        # Preferential attachment: the top hub dwarfs the median peer.
        top = max(degrees)
        median = sorted(degrees)[len(degrees) // 2]
        assert top >= 4 * median
    elif entry.degree_shape == "tree":
        assert len(graph.edges) == graph.n - 1
    elif entry.degree_shape == "uniform":
        # No runaway hubs in the uniform baselines.
        assert max(degrees) <= 6 * (2 * len(graph.edges) / graph.n)
    else:  # pragma: no cover - unknown shapes must not register
        pytest.fail(f"undeclared degree shape {entry.degree_shape!r}")


def test_ring_degree_two():
    graph = generate("ring", 12, seed=0)
    assert graph.degrees() == [2] * 12


def test_scale_free_hubs_ordered_by_degree():
    graph = generate("scale_free", 100, seed=9, attach=2)
    hubs = graph.hubs(3)
    degrees = graph.degrees()
    assert degrees[hubs[0]] >= degrees[hubs[1]] >= degrees[hubs[2]]
    assert degrees[hubs[0]] == max(degrees)


def test_cdn_tiers_levels_and_tree():
    graph = generate("cdn_tiers", 21, seed=4, tiers=3, fanout=4)
    assert len(graph.edges) == graph.n - 1
    assert graph.tier[0] == 0
    assert set(graph.tier) == {0, 1, 2}
    # Every edge links adjacent tiers (a strict hierarchy).
    for u, v in graph.edges:
        assert abs(graph.tier[u] - graph.tier[v]) == 1


def test_clustered_communities_cover_all_clusters():
    clusters = 4
    graph = generate("clustered", 40, seed=8, clusters=clusters)
    assert set(graph.community) == set(range(clusters))
    intra = sum(
        1 for u, v in graph.edges if graph.community[u] == graph.community[v]
    )
    # Clusters are dense inside, thin between.
    assert intra > len(graph.edges) / 2


def test_unknown_generator_names_choices():
    with pytest.raises(TopologyError, match="ring"):
        generate("nosuch", 5, seed=1)


def test_unknown_parameter_names_accepted_set():
    with pytest.raises(TopologyError, match="attach"):
        generate("scale_free", 5, seed=1, bogus=2)


def test_invalid_node_count_rejected():
    with pytest.raises(TopologyError, match="n >= 1"):
        generate("random", 0, seed=1)


def test_single_node_graph_is_edgeless():
    for kind in ALL:
        graph = generate(kind, 1, seed=2)
        assert graph.edges == ()
        assert isinstance(graph, GeneratedTopology)
