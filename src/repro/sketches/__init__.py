"""Working-set similarity estimation (paper Section 4).

Three coarse-grained "calling card" techniques fit a single 1KB control
packet: ``k`` random keys, the keys that are ``0 mod k``, and — the
preferred technique — per-permutation minima.  All three are summary
kinds (``random_sample``, ``modk``, ``minwise``; build them with
:func:`repro.reconcile.build_summary`).  This package keeps the
stand-alone sketch the estimator tests and experiments read:

* :class:`MinwiseSketch` — per-permutation minima.  Estimates
  *resemblance* ``|A ∩ B| / |A ∪ B|``, supports unions, and two sketches
  from third parties can be compared without either set.

:mod:`repro.sketches.estimate` converts between resemblance and containment
via inclusion-exclusion, as the paper notes is possible given set sizes.
"""

from repro.sketches.minwise import MinwiseSketch
from repro.sketches.estimate import (
    containment_from_resemblance,
    intersection_from_resemblance,
    resemblance_from_containment,
)

__all__ = [
    "MinwiseSketch",
    "containment_from_resemblance",
    "resemblance_from_containment",
    "intersection_from_resemblance",
]
