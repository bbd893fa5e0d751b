"""Linear permutations of the key universe.

Section 4 of the paper estimates working-set resemblance with min-wise
sketches built from random permutations.  Truly random permutations are
impractical to store, so the paper uses simple linear permutations
``pi(x) = (a*x + b) mod |U|`` (Figure 2 shows ``(4x+2) mod 64`` etc.),
citing Broder et al. that this does not dramatically hurt accuracy.

A linear map modulo ``u`` is a bijection iff ``gcd(a, u) = 1``.  We keep
``u`` a power of two by default (so "``a`` odd" suffices) but support any
universe size.
"""

import math
import random
from typing import List, Sequence

from repro.seeding import randbelow


class LinearPermutation:
    """Bijection ``x -> (a*x + b) mod universe_size``.

    Raises:
        ValueError: if ``gcd(a, universe_size) != 1`` (not a bijection).
    """

    __slots__ = ("a", "b", "universe_size", "_a_inv")

    def __init__(self, a: int, b: int, universe_size: int):
        if universe_size <= 1:
            raise ValueError("universe must contain at least two keys")
        a %= universe_size
        b %= universe_size
        if math.gcd(a, universe_size) != 1:
            raise ValueError(f"a={a} is not invertible modulo {universe_size}")
        self.a = a
        self.b = b
        self.universe_size = universe_size
        self._a_inv = pow(a, -1, universe_size)

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) % self.universe_size

    def invert(self, y: int) -> int:
        """Return the unique ``x`` with ``pi(x) == y``."""
        return ((y - self.b) * self._a_inv) % self.universe_size

    def min_over(self, keys: Sequence[int]) -> int:
        """``min_j pi(s_j)`` — the min-wise summary entry for one permutation."""
        a, b, u = self.a, self.b, self.universe_size
        return min((a * x + b) % u for x in keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LinearPermutation(({self.a}*x + {self.b}) mod {self.universe_size})"


def random_linear_permutation(
    universe_size: int, rng: random.Random
) -> LinearPermutation:
    """Draw a uniformly random invertible linear permutation of ``[0, u)``."""
    while True:
        a = 1 + randbelow(rng, universe_size - 1)
        if math.gcd(a, universe_size) == 1:
            break
    b = randbelow(rng, universe_size)
    return LinearPermutation(a, b=b, universe_size=universe_size)


class PermutationFamily:
    """A fixed, shared list of permutations agreed on by all peers.

    The paper requires peers to "agree on these permutations in advance; we
    assume they are fixed universally off-line".  Constructing two families
    from the same ``(count, universe_size, seed)`` yields identical
    permutations, which is how distinct :class:`~repro.sketches.MinwiseSketch`
    instances become comparable.
    """

    def __init__(self, count: int, universe_size: int, seed: int = 0):
        if count <= 0:
            raise ValueError("need at least one permutation")
        rng = random.Random(seed)
        self.universe_size = universe_size
        self.seed = seed
        self.permutations: List[LinearPermutation] = [
            random_linear_permutation(universe_size, rng) for _ in range(count)
        ]

    def __len__(self) -> int:
        return len(self.permutations)

    def __iter__(self):
        return iter(self.permutations)

    def __getitem__(self, i: int) -> LinearPermutation:
        return self.permutations[i]

    def compatible_with(self, other: "PermutationFamily") -> bool:
        """True if sketches built from the two families may be compared."""
        return (
            self.universe_size == other.universe_size
            and self.seed == other.seed
            and len(self) == len(other)
        )
