"""Compact searchable set summaries (paper Section 5.2).

* :class:`BloomFilter` — the classic bit-array summary peer A ships so peer
  B can test each of its own symbols for membership in A's working set.
  False positives cost only a missed useful symbol, never a redundant
  transmission — the asymmetry the paper's approximate reconciliation
  exploits.

The counting filter (deletion-capable, [11]) and the partition filter
of Section 5.2's "scaling up" construction are the ``counting_bloom``
and ``partitioned_bloom`` summary kinds of :mod:`repro.reconcile`.
"""

from repro.filters.bloom import BloomFilter, optimal_hash_count, false_positive_rate

__all__ = [
    "BloomFilter",
    "false_positive_rate",
    "optimal_hash_count",
]
