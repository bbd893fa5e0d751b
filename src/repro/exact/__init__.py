"""Exact set-reconciliation baselines (paper Section 5.1).

The paper dismisses these as "prohibitive in either computation time or
transmission size" for its setting; they are implemented anyway so the
trade-off can be measured rather than asserted.  Each is a summary kind
of :mod:`repro.reconcile`:

* ``wholeset`` — ship the entire set; ``O(|S_A| log u)`` bits, exact.
* ``hashset`` — ship hashes of the set; ``O(|S_A| log h)`` bits, exact
  up to an inverse-polynomial miss probability.
* ``cpi`` — Minsky-Trachtenberg-Zippel set discrepancy (paper reference
  [19]): ``O(d log u)`` bits when the discrepancy ``d`` is known, but
  ``Θ(d |S_A|)`` field preprocessing and ``Θ(d^3)`` recovery work.  The
  field arithmetic is :class:`CharacteristicPolynomialReconciler`, here.
"""

from repro.exact.cpi import (
    CharacteristicPolynomialReconciler,
    DiscrepancyExceeded,
)

__all__ = [
    "CharacteristicPolynomialReconciler",
    "DiscrepancyExceeded",
]
