"""Hashing primitives shared by sketches, filters, and reconciliation trees.

The paper assumes element keys "may be assumed random, since the key space
can always be transformed by applying a (pseudo-)random hash function"
(Section 4).  This subpackage provides that transformation layer:

* :mod:`repro.hashing.mix` — the deterministic 64-bit splitmix64 mixer
  every other hash is built on.
* :mod:`repro.hashing.families` — the seeded double-hashing scheme used
  by Bloom filters.
* :mod:`repro.hashing.permutations` — linear permutations
  ``pi(x) = (a*x + b) mod U`` used by min-wise sketches (Section 4,
  Figure 2) and by the ART balancing hash (Section 5.3, Figure 3).
"""

from repro.hashing.mix import mix64
from repro.hashing.families import BloomHashes
from repro.hashing.permutations import (
    LinearPermutation,
    PermutationFamily,
    random_linear_permutation,
)

__all__ = [
    "mix64",
    "BloomHashes",
    "LinearPermutation",
    "PermutationFamily",
    "random_linear_permutation",
]
