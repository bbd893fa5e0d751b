"""Difference search over a local trie against a remote summary.

Peer B walks *its own* trie; at each node it asks the summary "does peer A
have a node with this value?".  A match means the subtree is (apparently)
common and the search can stop — except Bloom false positives make matches
unreliable, so the paper adds *correction levels*: a correction level of
``c`` tolerates up to ``c`` consecutive internal matches before pruning
(Section 5.3, Figure 4(a)).

Leaves that survive to the bottom without a leaf-filter match are reported
as elements of ``S_B - S_A``.  The search never *invents* differences
beyond hash collisions — Bloom errors only hide differences, preserving
the "never send a useless symbol" property of reconciled transfers.
"""

from dataclasses import dataclass, field
from typing import FrozenSet, List, Protocol

from repro.art.tree import ReconciliationTrie, TrieNode


class TreeSummary(Protocol):
    """What a search needs from a summary: the ``art`` summary kind
    (Bloom-filtered) or :class:`ExactTreeSummary`."""

    def matches_internal(self, value: int) -> bool: ...

    def matches_leaf(self, value: int) -> bool: ...


class ExactTreeSummary:
    """Node values shipped exactly (a "comparison tree" in Figure 3(e)
    terms): the no-Bloom-error baseline and accuracy ceiling.  Accurate
    up to hash collisions, but bulky."""

    def __init__(self, trie: ReconciliationTrie):
        self.seed = trie.seed
        self._internal: FrozenSet[int] = frozenset(trie.internal_values())
        self._leaves: FrozenSet[int] = frozenset(trie.leaf_values())

    def matches_internal(self, value: int) -> bool:
        """Whether some internal node of the summarised trie has ``value``."""
        return value in self._internal

    def matches_leaf(self, value: int) -> bool:
        """Whether some leaf of the summarised trie has ``value``."""
        return value in self._leaves


@dataclass
class SearchStats:
    """Work and outcome accounting for one difference search.

    ``nodes_visited`` is the empirical cost measure behind the paper's
    Figure 4(c) claim of ``O(d log n)`` search (vs ``O(n)`` for a plain
    Bloom filter scan).
    """

    nodes_visited: int = 0
    pruned_subtrees: int = 0
    leaf_matches: int = 0
    differences: List[int] = field(default_factory=list)


def find_difference(
    local: ReconciliationTrie,
    remote_summary: TreeSummary,
    correction: int = 1,
) -> SearchStats:
    """Find (a subset of) elements the local peer has that the remote lacks.

    Args:
        local: the searching peer's own trie (peer B in paper notation).
        remote_summary: peer A's summary, exact or Bloom-filtered.
        correction: number of consecutive internal matches tolerated
            before the search prunes (paper's correction level; 0 prunes
            at the first match).

    Returns:
        :class:`SearchStats` whose ``differences`` lists keys in
        ``S_B - S_A`` that the search identified.
    """
    if correction < 0:
        raise ValueError("correction level must be non-negative")
    stats = SearchStats()
    if local.root is None:
        return stats
    _search(local.root, remote_summary, correction, 0, stats)
    return stats


def _search(
    node: TrieNode,
    summary: TreeSummary,
    correction: int,
    consecutive_matches: int,
    stats: SearchStats,
) -> None:
    stats.nodes_visited += 1
    if node.is_leaf:
        if summary.matches_leaf(node.value):
            stats.leaf_matches += 1
        else:
            assert node.element is not None
            stats.differences.append(node.element)
        return
    if summary.matches_internal(node.value):
        consecutive_matches += 1
        if consecutive_matches > correction:
            stats.pruned_subtrees += 1
            return
    else:
        consecutive_matches = 0
    assert node.left is not None and node.right is not None
    _search(node.left, summary, correction, consecutive_matches, stats)
    _search(node.right, summary, correction, consecutive_matches, stats)
