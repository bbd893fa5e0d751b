"""Closed-form analysis companions to the simulations.

The paper leans on three analytic facts; these helpers make them testable
against the simulators:

* the Coupon Collector behaviour of random selection (Section 6.3, citing
  Klamkin & Newman [14]);
* the Bloom filter false-positive formula (Section 5.2) — in
  :func:`repro.reconcile.false_positive_rate`;
* the immediately-useful probability of a degree-``d`` recoded symbol
  (Section 5.4.2) — in
  :func:`repro.coding.recode.immediate_usefulness_probability`.
"""

from repro.analysis.coupon import (
    expected_draws_to_collect,
    expected_random_strategy_overhead,
    harmonic,
)

__all__ = [
    "harmonic",
    "expected_draws_to_collect",
    "expected_random_strategy_overhead",
]
