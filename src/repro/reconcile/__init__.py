"""repro.reconcile — one ``Summary`` interface from sketches to specs.

The paper's peers choose among summaries of varying cost and precision:
min-wise sketches as calling cards (§4), Bloom filters and approximate
reconciliation trees as searchable summaries (§5.2-5.3), and exact
reconciliation as the baseline (§5.1).  This package makes them
interchangeable behind a single interface so the accuracy-vs-overhead
trade-off becomes a parameter instead of a code path:

>>> from repro.reconcile import build_summary
>>> mine = build_summary("bloom", my_ids, bits_per_element=8)
>>> wire = mine.to_payload()                  # JSON-able, honest bytes
>>> theirs = summary_from_payload(wire)       # the receiving peer
>>> useful = theirs.missing_from(their_ids)   # guaranteed-useful ids

* :class:`Summary` — the abstract interface: ``build``, the wire
  surface each kind's ``WIRE`` layout declares once (``wire_bytes`` /
  ``to_payload`` / ``from_payload``, one codec for every kind) and the
  capability-flagged reconciliation surface (``may_contain``,
  ``missing_from``, ``estimate_difference``); ``merge`` is the min-wise
  card's alone.
* :mod:`repro.reconcile.registry` — string-keyed adapter registry
  (``build_summary("art", ids)``); :func:`summary_kinds` lists it.
* :mod:`repro.reconcile.adapters` — one adapter per structure:
  ``minwise``, ``modk``, ``random_sample``, ``bloom``,
  ``partitioned_bloom``, ``art``, ``cpi``, ``hashset``, ``wholeset``;
  beside their kinds, the §4 estimators
  (:func:`containment_from_resemblance`,
  :func:`intersection_from_resemblance`) and the §5.2 Bloom analysis
  (:func:`false_positive_rate`, :func:`optimal_hash_count`).
* :class:`SummaryPolicy` — one summary choice, a kind and its params;
  consumed by :class:`~repro.protocol.peer.ProtocolPeer` and the
  delivery strategies.  :data:`CALLING_CARD` is the §4 card every hello
  carries, one min-wise family for every peer.
"""

from repro.reconcile.base import Summary, SummaryError
from repro.reconcile.registry import (
    UnknownSummaryError,
    build_summary,
    register_summary,
    summary_class,
    summary_from_payload,
    summary_kinds,
    summary_recipe,
)
# Importing the adapters registers every built-in kind.
from repro.reconcile.adapters import (
    containment_from_resemblance,
    false_positive_rate,
    intersection_from_resemblance,
    optimal_hash_count,
)
from repro.reconcile.policy import (
    CALLING_CARD,
    DEFAULT_POLICY,
    SummaryPolicy,
    correlation_from_summaries,
)

__all__ = [
    "Summary",
    "SummaryError",
    "UnknownSummaryError",
    "register_summary",
    "summary_class",
    "summary_kinds",
    "build_summary",
    "summary_recipe",
    "summary_from_payload",
    "SummaryPolicy",
    "DEFAULT_POLICY",
    "CALLING_CARD",
    "correlation_from_summaries",
    "containment_from_resemblance",
    "intersection_from_resemblance",
    "false_positive_rate",
    "optimal_hash_count",
]
