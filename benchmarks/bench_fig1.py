"""Figure 1: the motivating example, measured.

The paper's opening argument: the multicast tree (Figure 1a) leaves
bandwidth on the table; parallel downloads (1b) and collaborative
"perpendicular" transfers (1c) progressively unlock it.  This bench runs
the exact working-set layout of Figure 1 and reports completion times
for tree-only vs fully collaborative delivery.
"""

from repro.api import build, specs


def _figure1(**kwargs):
    return build(specs.figure1(target=300, seed=5, **kwargs)).scenario


def test_fig1_collaboration_vs_tree(benchmark):
    def run_both():
        collab = _figure1().run(max_ticks=6_000)
        tree = _figure1(with_perpendicular=False).run(max_ticks=6_000)
        return collab, tree

    collab, tree = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print("\n== Figure 1: tree vs collaborative overlay (target=300) ==")
    print(f"{'mode':15s} {'ticks':>6s} {'efficiency':>11s} per-node completion")
    print(f"{'tree (1a)':15s} {tree.ticks:6d} {tree.efficiency:11.2f} "
          f"{tree.completion_ticks}")
    print(f"{'collab (1c)':15s} {collab.ticks:6d} {collab.efficiency:11.2f} "
          f"{collab.completion_ticks}")
    print(f"speedup: {tree.ticks / collab.ticks:.2f}x")
    assert collab.all_complete and tree.all_complete
    assert collab.ticks < tree.ticks
    # Leaf nodes (C, D, E) gain the most — they sit below the tree
    # bottleneck in 1(a) but have perpendicular options in 1(c).
    for leaf in ("C", "D", "E"):
        assert collab.completion_ticks[leaf] < tree.completion_ticks[leaf]
