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

* :class:`Summary` — the abstract interface: ``build`` /
  ``wire_bytes`` / ``to_payload`` / ``from_payload`` / ``merge`` plus
  the capability-flagged reconciliation surface (``may_contain``,
  ``missing_from``, ``estimate_difference``).
* :mod:`repro.reconcile.registry` — string-keyed adapter registry
  (``build_summary("art", ids)``); :func:`summary_kinds` lists it.
* :mod:`repro.reconcile.adapters` — one adapter per structure:
  ``minwise``, ``modk``, ``random_sample``, ``bloom``,
  ``counting_bloom``, ``partitioned_bloom``, ``art``, ``cpi``,
  ``hashset``, ``wholeset``.
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
from repro.reconcile import adapters as _adapters  # noqa: F401
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
]
