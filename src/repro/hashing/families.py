"""Seeded hash families with bounded ranges.

Two families are provided:

* :class:`UniversalHash` — Carter-Wegman ``((a*x + b) mod p) mod m`` over a
  Mersenne prime, the textbook 2-universal family.  Used where analysis
  assumes 2-universality (ART leaf hashing, exact hash-set reconciliation).
* :class:`BloomHashes` — the Kirsch-Mitzenmacher double-hashing scheme
  ``g_i(x) = h1(x) + i*h2(x) mod m`` that simulates ``k`` independent hash
  functions with two.  This is the construction the Bloom filter analysis
  ``f = (1 - e^{-kn/m})^k`` from Section 5.2 tolerates.
"""

import random
from typing import Callable, List, Sequence

from repro.hashing.mix import mix64
from repro.seeding import randbelow

#: A hash function: key -> bucket index.
HashFamily = Callable[[int], int]

_PRIME61 = (1 << 61) - 1  # Mersenne prime, fits comfortably in 64 bits.


class UniversalHash:
    """2-universal hash ``x -> ((a*x + b) mod p) mod m``.

    Attributes:
        range_size: the output range ``m``; outputs lie in ``[0, m)``.
    """

    __slots__ = ("_a", "_b", "range_size")

    def __init__(self, range_size: int, a: int, b: int):
        if range_size <= 0:
            raise ValueError("range_size must be positive")
        if not 1 <= a < _PRIME61:
            raise ValueError("multiplier a must satisfy 1 <= a < p")
        if not 0 <= b < _PRIME61:
            raise ValueError("offset b must satisfy 0 <= b < p")
        self._a = a
        self._b = b
        self.range_size = range_size

    @classmethod
    def random(cls, range_size: int, rng: random.Random) -> "UniversalHash":
        """Draw one member of the family uniformly at random."""
        a = 1 + randbelow(rng, _PRIME61 - 1)
        return cls(range_size, a, randbelow(rng, _PRIME61))

    def __call__(self, x: int) -> int:
        return ((self._a * x + self._b) % _PRIME61) % self.range_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UniversalHash(m={self.range_size}, a={self._a}, b={self._b})"


def random_hash(range_size: int, seed: int) -> HashFamily:
    """Return a fast seeded hash ``key -> [0, range_size)`` based on mix64.

    Unlike :class:`UniversalHash` this is not provably 2-universal, but it is
    far faster and empirically uniform; the filter/sketch tests validate the
    distributional properties we rely on.
    """

    def h(x: int, _seed: int = seed, _m: int = range_size) -> int:
        return mix64(x, _seed) % _m

    return h


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

    def indices_many(self, keys: Sequence[int]) -> List[List[int]]:
        """Bucket indices for a batch of keys (convenience for tests)."""
        return [self.indices(x) for x in keys]
