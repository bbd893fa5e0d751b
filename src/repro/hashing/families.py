"""The Bloom filter's seeded hash family.

:class:`BloomHashes` is the Kirsch-Mitzenmacher double-hashing scheme
``g_i(x) = h1(x) + i*h2(x) mod m`` that simulates ``k`` independent hash
functions with two.  This is the construction the Bloom filter analysis
``f = (1 - e^{-kn/m})^k`` from Section 5.2 tolerates.
"""

from typing import List

from repro.hashing.mix import mix64


class BloomHashes:
    """``k`` hash functions over ``[0, m)`` via double hashing.

    ``g_i(x) = (h1(x) + i * h2(x)) mod m`` with ``h2`` forced odd so that
    for power-of-two ``m`` the probe sequence covers the table.
    """

    __slots__ = ("k", "m", "_seed1", "_seed2")

    def __init__(self, k: int, m: int, seed: int):
        if k <= 0:
            raise ValueError("need at least one hash function")
        if m <= 0:
            raise ValueError("table size must be positive")
        self.k = k
        self.m = m
        self._seed1 = seed
        self._seed2 = seed ^ 0xDEADBEEFCAFEF00D

    def indices(self, x: int) -> List[int]:
        """All ``k`` bucket indices for key ``x``."""
        h1 = mix64(x, self._seed1)
        h2 = mix64(x, self._seed2) | 1
        m = self.m
        return [(h1 + i * h2) % m for i in range(self.k)]
