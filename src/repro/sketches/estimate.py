"""Conversions between resemblance and containment estimates.

Notation follows Section 4 of the paper.  For working sets ``A`` and ``B``:

* resemblance ``r = |A ∩ B| / |A ∪ B|`` (what min-wise sketches estimate);
* containment ``c = |A ∩ B| / |B|`` (the fraction of B's symbols useless to
  A, i.e. the "correlation" axis of Figures 5-8).

Given ``|A|`` and ``|B|`` either determines the other via
``|A ∪ B| = |A| + |B| - |A ∩ B|`` (inclusion-exclusion).
"""


def intersection_from_resemblance(r: float, size_a: int, size_b: int) -> float:
    """Estimated ``|A ∩ B|`` from resemblance ``r`` and the two set sizes.

    From ``r = i / (|A| + |B| - i)`` solve ``i = r (|A| + |B|) / (1 + r)``.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"resemblance must lie in [0, 1], got {r}")
    if size_a < 0 or size_b < 0:
        raise ValueError("set sizes must be non-negative")
    return r * (size_a + size_b) / (1.0 + r)


def containment_from_resemblance(r: float, size_a: int, size_b: int) -> float:
    """Estimated containment ``|A ∩ B| / |B|`` from resemblance ``r``.

    Returns 0 for an empty ``B`` (nothing to contain).  The result is
    clamped to ``[0, 1]`` since sampling noise in ``r`` can push the raw
    algebra slightly outside.
    """
    if size_b == 0:
        return 0.0
    c = intersection_from_resemblance(r, size_a, size_b) / size_b
    return min(1.0, max(0.0, c))
