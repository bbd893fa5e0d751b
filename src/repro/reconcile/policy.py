"""Summary policies: which summary a peer builds, and how it uses it.

A :class:`SummaryPolicy` is one summary choice, a kind and its params.
The calling card every hello carries (§4) is :data:`CALLING_CARD`, one
min-wise family fixed off-line for every peer; the *reconciliation
summary* shipped when finer-grained information pays for itself (§3)
is the peer's own policy.  :class:`~repro.protocol.peer.ProtocolPeer`,
:class:`~repro.protocol.session.TransferSession`,
:class:`~repro.overlay.simulator.OverlaySimulator`, and
:func:`repro.delivery.strategies.make_strategy` reconcile only through
a policy — there is no policy-less path — which is what lets one
experiment spec swap ``bloom`` for ``art`` or ``cpi`` and measure the
paper's accuracy-vs-overhead trade-off.  A layer nobody handed a policy
holds :data:`DEFAULT_POLICY`.
"""

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.reconcile.base import Summary, SummaryError
from repro.reconcile.registry import build_summary, summary_class, summary_recipe


def _freeze(params: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not params:
        return ()
    return tuple(sorted(params.items()))


def correlation_from_summaries(
    ours: Summary, theirs: Summary, local_size: int
) -> float:
    """``|L ∩ R| / |L|`` from two comparable summaries.

    The one inclusion-exclusion estimator behind every correlation
    signal in the stack (§4): ``ours`` must be the locally built side,
    ``theirs`` the received one; ``local_size`` is ``|L|``.  Used by
    the protocol handshake, :meth:`ProtocolPeer.
    estimate_peer_correlation`, and :meth:`SummaryPolicy.correlation`.
    """
    if local_size <= 0:
        return 0.0
    from repro.exact.cpi import DiscrepancyExceeded

    try:
        d = ours.estimate_difference(theirs)
    except DiscrepancyExceeded:
        # An exceeded CPI bound *is* evidence: the discrepancy is
        # larger than the sketch was sized for, so overlap is small.
        return 0.0
    inter = (local_size + theirs.set_size - d) / 2.0
    return min(1.0, max(0.0, inter / local_size))


class SummaryPolicy:
    """How a peer summarises its working set and reconciles with others:
    one kind and its params (equal policies name the same two).

    Args:
        kind: registry key of the summary (``"bloom"``, ``"art"``,
            ``"cpi"``, ``"minwise"``, ...).
        params: adapter parameters for that summary.
    """

    def __init__(self, kind: str = "bloom", params: Optional[Mapping[str, Any]] = None):
        self.kind = kind
        self.params: Tuple[Tuple[str, Any], ...] = _freeze(params)
        # Computed once (failing fast on unknown kinds, the registry's
        # own error): what a working set needs to keep it current.
        self._summary = summary_recipe(kind, params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = type(self).__name__
        return f"{name}(kind={self.kind!r}, params={dict(self.params)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SummaryPolicy):
            return NotImplemented
        return (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self) -> int:
        return hash((self.kind, self.params))

    # -- construction -------------------------------------------------------

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def build(self, ids: Iterable[int]) -> Summary:
        """The summary of bare ``ids``, from scratch."""
        return build_summary(self.kind, ids, **dict(self.params))

    def summary_of(self, working_set) -> Summary:
        """``working_set``'s summary: the shared object
        :meth:`~repro.delivery.working_set.WorkingSet.cached` keeps
        current, identical to ``working_set.summary(kind, **params)``."""
        return working_set.cached(*self._summary)

    # -- capability probes ---------------------------------------------------

    @property
    def can_filter(self) -> bool:
        """Whether the policy's summary supports difference search."""
        return summary_class(self.kind).supports_difference

    @property
    def can_estimate(self) -> bool:
        """Whether the policy's summary supports difference estimation."""
        return summary_class(self.kind).supports_estimate

    @property
    def partial_coverage(self) -> bool:
        """Whether the policy's summary speaks for part of the key space
        only, so a domain it filtered still holds ids the summariser has
        (see :meth:`useful_subset`): cutting that domain to the
        summariser's request would lose needed ids at random."""
        return summary_class(self.kind).partial_coverage

    # -- reconciliation ------------------------------------------------------

    def useful_subset(
        self, remote: Summary, candidates: Iterable[int]
    ) -> List[int]:
        """Candidate ids the remote (summarised) peer may still need.

        The sender-side primitive behind every informed strategy:
        everything a summary says the summariser lacks is guaranteed
        useful to it (false positives only *hide* useful ids, never
        invent useless ones).  A ``partial_coverage`` summary speaks
        for the keys it ``covers`` alone, so every candidate it does
        not cover stays in the domain — dropping them would starve the
        transfer of everything outside one residue class.
        """
        if not remote.partial_coverage:
            return remote.missing_from(candidates)
        pool = list(candidates)
        missing = set(remote.missing_from(pool))
        return [key for key in pool if key in missing or not remote.covers(key)]

    def correlation(self, remote: Summary, local_ids: Iterable[int]) -> float:
        """Estimated ``|L ∩ R| / |L|`` for a local set against a summary.

        Uses the remote summary's difference search when it is
        authoritative for the whole key space (counting local ids it
        does *not* lack); otherwise builds a *comparable* local summary
        — the remote's own agreement parameters, via
        :meth:`~repro.reconcile.base.Summary.compatible_build_params` —
        and derives the intersection from the symmetric-difference
        estimate.  The result is the degree-shift knob of Recode/MW and
        the admission-control signal of §4.
        """
        local = list(dict.fromkeys(local_ids))
        if not local:
            return 0.0
        if remote.supports_difference and not remote.partial_coverage:
            from repro.exact.cpi import DiscrepancyExceeded

            try:
                missing = len(remote.missing_from(local))
            except DiscrepancyExceeded:
                # Bound exceeded: the sets differ more than the sketch
                # was sized for — low overlap is the honest reading.
                return 0.0
            return min(1.0, max(0.0, (len(local) - missing) / len(local)))
        if not remote.supports_estimate:
            raise SummaryError(
                f"{remote.kind} summaries support neither difference search "
                "nor estimation; no correlation signal is available"
            )
        mine = build_summary(remote.kind, local, **remote.compatible_build_params())
        return correlation_from_summaries(mine, remote, len(local))


#: What every layer holds when nobody chose a summary: 8-bits-per-element
#: Bloom reconciliation.
DEFAULT_POLICY = SummaryPolicy("bloom", {"bits_per_element": 8})

#: The calling card (§4) every hello carries, and the overlay's card
#: when a run names no other (:func:`repro.overlay.default_scheme`):
#: the 1KB 128-permutation min-wise sketch under the one permutation
#: family peers fix off-line (seed 99), so any two cards compare.
CALLING_CARD = SummaryPolicy("minwise", {"entries": 128, "seed": 99})


__all__ = ["SummaryPolicy", "DEFAULT_POLICY", "CALLING_CARD", "correlation_from_summaries"]
