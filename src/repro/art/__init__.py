"""Approximate reconciliation trees (paper Section 5.3): trie and search.

The summary itself — node values folded into leaf and internal Bloom
filters — is the ``art`` summary kind:

>>> from repro.reconcile import build_summary
>>> art_a = build_summary("art", set_a, bits_per_element=8, seed=7, correction=3)
>>> trie_b = ReconciliationTrie(set_b, seed=7)
>>> found = find_difference(trie_b, art_a, correction=3)

``found.differences`` is a subset of ``set_b - set_a`` (never elements A
already has); accuracy — the fraction of true differences found — is what
Figure 4 measures.  ``art_a.missing_from(set_b)`` is the same search.
"""

from repro.art.search import ExactTreeSummary, SearchStats, find_difference
from repro.art.tree import ReconciliationTrie, TrieNode, value_hash

__all__ = [
    "ExactTreeSummary",
    "ReconciliationTrie",
    "TrieNode",
    "SearchStats",
    "find_difference",
    "value_hash",
]
