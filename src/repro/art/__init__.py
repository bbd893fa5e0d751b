"""Approximate reconciliation trees (paper Section 5.3).

The facade most callers want:

>>> from repro.art import ApproximateReconciliationTree
>>> art_a = ApproximateReconciliationTree(set_a, bits_per_element=8, seed=7)
>>> art_b = ApproximateReconciliationTree(set_b, bits_per_element=8, seed=7)
>>> found = art_b.difference_against(art_a.summary(), correction=3)

``found.differences`` is a subset of ``set_b - set_a`` (never elements A
already has); accuracy — the fraction of true differences found — is what
Figure 4 measures.
"""

from typing import Iterable, Optional

from repro.art.search import SearchStats, find_difference
from repro.art.summary import ARTSummary, ExactTreeSummary
from repro.art.tree import ReconciliationTrie, TrieNode, value_hash

__all__ = [
    "ApproximateReconciliationTree",
    "ARTSummary",
    "ExactTreeSummary",
    "ReconciliationTrie",
    "TrieNode",
    "SearchStats",
    "find_difference",
    "value_hash",
]


class ApproximateReconciliationTree:
    """A peer's reconciliation trie plus summary/search conveniences."""

    def __init__(
        self,
        elements: Iterable[int],
        bits_per_element: int = 8,
        leaf_bits_per_element: Optional[float] = None,
        seed: int = 0,
    ):
        self.trie = ReconciliationTrie(elements, seed=seed)
        self.bits_per_element = bits_per_element
        self.leaf_bits_per_element = leaf_bits_per_element
        self.seed = seed

    @property
    def size(self) -> int:
        """Number of distinct elements summarised."""
        return self.trie.size

    def summary(self) -> ARTSummary:
        """Bloom-filtered summary to ship to a peer (the ART proper)."""
        return ARTSummary(
            self.trie,
            bits_per_element=self.bits_per_element,
            leaf_bits_per_element=self.leaf_bits_per_element,
        )

    def difference_against(
        self, remote_summary, correction: int = 1
    ) -> SearchStats:
        """Search our trie for elements the summarised remote set lacks."""
        if getattr(remote_summary, "seed", self.seed) != self.seed:
            raise ValueError(
                "local trie and remote summary were built with different "
                "hash seeds; peers must agree on hash functions off-line"
            )
        return find_difference(self.trie, remote_summary, correction=correction)
