"""Min-wise sketches (Section 4, the paper's preferred approach).

For each permutation ``pi_j`` in a universally agreed family, a peer stores
``min_j = min over its working set of pi_j(x)``.  Two sketches match in
position ``j`` with probability exactly the resemblance
``r = |A ∩ B| / |A ∪ B|``, so the fraction of matching positions is an
unbiased estimator of ``r``.

Properties the paper relies on and this class implements:

* **Incremental update** (constant work per new symbol): :meth:`add`.
* **Union combination**: coordinate-wise minimum of two sketches is the
  sketch of the union, enabling three-party overlap checks
  (:meth:`merge`).
* **1KB calling card**: 128 permutations x 64-bit minima ≈ 1KB
  (:meth:`packet_size_bytes`).
"""

from typing import Iterable, List, Optional

from repro.hashing.permutations import PermutationFamily

#: Sentinel stored before any element has been added.
_EMPTY = None


class MinwiseSketch:
    """Vector of per-permutation minima over a working set."""

    def __init__(self, family: PermutationFamily):
        self.family = family
        self._minima: List[Optional[int]] = [_EMPTY] * len(family)

    @classmethod
    def build(
        cls, working_set: Iterable[int], family: PermutationFamily
    ) -> "MinwiseSketch":
        """Summarise ``working_set`` under ``family`` in one pass."""
        sketch = cls(family)
        for key in working_set:
            sketch.add(key)
        return sketch

    @classmethod
    def build_vectorized(
        cls, working_set: Iterable[int], family: PermutationFamily
    ) -> "MinwiseSketch":
        """Numpy-accelerated batch build (identical output to :meth:`build`).

        Delegates to :func:`repro.hashing.batch.permutation_minima` —
        the vectorised ``(a*x + b) mod u`` kernel shared with the
        reconcile adapters.  For the 1KB 128-permutation calling card
        over thousands of keys this is an order of magnitude faster
        than the scalar loop; prefer it when sketching from scratch,
        and :meth:`add` for incremental updates.
        """
        from repro.hashing.batch import permutation_minima

        key_list = list(working_set)
        sketch = cls(family)
        if not key_list:
            return sketch
        # The kernel packs an int64 row; this primitive keeps its list.
        sketch._minima = list(permutation_minima(family, key_list))
        return sketch

    @property
    def minima(self) -> List[Optional[int]]:
        """The raw vector ``v(A)`` that goes on the wire."""
        return list(self._minima)

    def add(self, key: int) -> None:
        """Fold one new symbol into the sketch (incremental update).

        Cost is one linear map per permutation — the constant-overhead
        update the paper requires so estimation works while data arrives.
        """
        if not 0 <= key < self.family.universe_size:
            raise ValueError(
                f"key {key} outside universe [0, {self.family.universe_size})"
            )
        minima = self._minima
        for j, perm in enumerate(self.family):
            image = perm(key)
            current = minima[j]
            if current is None or image < current:
                minima[j] = image

    def _check_comparable(self, other: "MinwiseSketch") -> None:
        if not self.family.compatible_with(other.family):
            raise ValueError(
                "sketches built from different permutation families are "
                "not comparable; peers must agree on the family off-line"
            )

    def estimate_resemblance(self, other: "MinwiseSketch") -> float:
        """Fraction of matching positions — unbiased estimate of ``r``.

        An unset position never matches, so two empty sketches — which
        resemble completely only vacuously — estimate 0.0: no evidence
        of shared content.
        """
        self._check_comparable(other)
        matches = sum(
            1
            for mine, theirs in zip(self._minima, other._minima)
            if mine is not None and mine == theirs
        )
        return matches / len(self._minima)

    def merge(self, other: "MinwiseSketch") -> "MinwiseSketch":
        """Sketch of ``A ∪ B`` — coordinate-wise minimum (paper, Section 4).

        This is what lets a receiver estimate the *combined* coverage of two
        prospective senders from their calling cards alone.
        """
        self._check_comparable(other)
        merged = MinwiseSketch(self.family)
        merged._minima = [
            theirs if mine is None else (mine if theirs is None else min(mine, theirs))
            for mine, theirs in zip(self._minima, other._minima)
        ]
        return merged

    def packet_size_bytes(self, entry_bits: int = 64) -> int:
        """Wire size of the minima vector (128 perms x 64 bits ≈ 1KB)."""
        return (entry_bits // 8) * len(self._minima)
