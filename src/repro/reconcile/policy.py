"""Summary policies: which summaries a peer builds, and how it uses them.

A :class:`SummaryPolicy` bundles the two summary roles the protocol
distinguishes (§3): the cheap *calling card* every hello carries
(min-wise by default) and the *reconciliation summary* shipped when
finer-grained information pays for itself (Bloom by default).
:class:`~repro.protocol.peer.ProtocolPeer`, :class:`~repro.protocol.
session.TransferSession`, :class:`~repro.overlay.simulator.
OverlaySimulator`, and :func:`repro.delivery.strategies.make_strategy`
reconcile only through a policy — there is no policy-less path — which
is what lets one experiment spec swap ``bloom`` for ``art`` or ``cpi``
and measure the paper's accuracy-vs-overhead trade-off.  A layer nobody
handed a policy holds :data:`DEFAULT_POLICY`.
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
    """How a peer summarises its working set and reconciles with others.

    Args:
        kind: registry key of the reconciliation summary (``"bloom"``,
            ``"art"``, ``"cpi"``, ...).
        params: adapter parameters for that summary.
        card_kind: registry key of the calling-card sketch.
        card_params: adapter parameters for the card.
    """

    def __init__(
        self,
        kind: str = "bloom",
        params: Optional[Mapping[str, Any]] = None,
        card_kind: str = "minwise",
        card_params: Optional[Mapping[str, Any]] = None,
    ):
        self.kind = kind
        self.params: Tuple[Tuple[str, Any], ...] = _freeze(params)
        self.card_kind = card_kind
        self.card_params: Tuple[Tuple[str, Any], ...] = _freeze(card_params)
        # Computed once (failing fast on unknown kinds, the registry's
        # own error): what a working set needs to keep each current.
        self._summary = summary_recipe(kind, params)
        self._card = summary_recipe(card_kind, card_params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SummaryPolicy(kind={self.kind!r}, params={dict(self.params)!r}, "
            f"card_kind={self.card_kind!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SummaryPolicy):
            return NotImplemented
        return (
            self.kind,
            self.params,
            self.card_kind,
            self.card_params,
        ) == (other.kind, other.params, other.card_kind, other.card_params)

    def __hash__(self) -> int:
        return hash((self.kind, self.params, self.card_kind, self.card_params))

    # -- construction -------------------------------------------------------

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def build(self, ids: Iterable[int]) -> Summary:
        """The reconciliation summary of bare ``ids``, from scratch."""
        return build_summary(self.kind, ids, **dict(self.params))

    def build_card(self, ids: Iterable[int]) -> Summary:
        """The calling-card sketch of bare ``ids``, from scratch."""
        return build_summary(self.card_kind, ids, **dict(self.card_params))

    def summary_of(self, working_set) -> Summary:
        """``working_set``'s reconciliation summary: the shared object
        :meth:`~repro.delivery.working_set.WorkingSet.cached` keeps
        current, identical to ``working_set.summary(kind, **params)``."""
        return working_set.cached(*self._summary)

    def card_of(self, working_set) -> Summary:
        """``working_set``'s calling card, cached the same way."""
        return working_set.cached(*self._card)

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


#: What every layer holds when nobody chose a summary: min-wise calling
#: cards (the 1KB 128-permutation card, under the universally agreed
#: family — seed 99; :func:`repro.overlay.default_scheme` reads it from
#: here) and 8-bits-per-element Bloom reconciliation.
DEFAULT_POLICY = SummaryPolicy(
    kind="bloom",
    params={"bits_per_element": 8},
    card_kind="minwise",
    card_params={"entries": 128, "seed": 99},
)


__all__ = ["SummaryPolicy", "DEFAULT_POLICY", "correlation_from_summaries"]
