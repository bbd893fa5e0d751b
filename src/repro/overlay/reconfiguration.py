"""Peering policies: admission control and utility-driven rewiring.

Section 4's closing point: "Equipped with similarity estimation, overlay
management may explicitly avoid connecting nodes with identical content."
These policies plug into :class:`~repro.overlay.simulator.OverlaySimulator`
and make the overlay *adaptive* in the paper's sense — connections form,
are judged by their informed utility, and are replaced when better-suited
peers exist.

The utility signal is pluggable: a :class:`SummaryScheme` names any
registered :class:`~repro.reconcile.base.Summary` kind (min-wise, Bloom,
mod-k, CPI, ...) and estimates peer usefulness through that structure's
own reconciliation surface, with the control bytes each exchanged card
would cost reported honestly via ``wire_bytes``.  :func:`default_scheme`
is the paper's own choice — the 1KB min-wise calling card — and the one
card joins, admission and rewiring share when a run names no other.
"""

import math
import random
from itertools import chain
from typing import Any, Callable, Collection, Iterable, Iterator, List, Mapping
from typing import Optional, Protocol, Sequence, Tuple

from repro.delivery.working_set import WorkingSet
from repro.exact.cpi import DiscrepancyExceeded
from repro.overlay.node import OverlayNode
from repro.reconcile import CALLING_CARD, SummaryPolicy
from repro.reconcile.base import Summary
from repro.reconcile.registry import summary_batch_recipe
from repro.seeding import choice, sample

#: The informed policy's defaults — admission threshold and swap margin
#: — read by the policy constructors below and by
#: :class:`~repro.api.spec.ReconfigSpec`'s fields alike, so "unset" in a
#: spec and "omitted" in a constructor call are the same numbers.
DEFAULT_MIN_USEFULNESS = 0.02
DEFAULT_HYSTERESIS = 0.1


class SummaryScheme(SummaryPolicy):
    """Which summary kind estimates peer utility, and how.

    A :class:`~repro.reconcile.SummaryPolicy` — a kind and its params —
    read as the overlay's card: one scheme is shared by a simulator's
    admission and rewiring policies so every utility judgement in a run
    flows through the same summary structure.  A node's card is its
    working set's cached summary (:meth:`~repro.reconcile.
    SummaryPolicy.summary_of`), brought current by absorbing the
    journalled delta when the kind supports incremental updates — so a
    reconfiguration epoch scanning many candidate pairs pays per new
    symbol, not per working-set size.
    """

    def card_of(self, node: OverlayNode) -> Summary:
        """The node's card under this scheme: the same cached object as
        ``node.working_set.summary(kind, **params)``."""
        return self.summary_of(node.working_set)

    def refresh(self, nodes: Iterable[OverlayNode]) -> None:
        """Bring the cards of ``nodes`` current together: the entries
        :meth:`card_of` reads, rebuilt or absorbed in one batched kernel
        pass (:meth:`~repro.delivery.working_set.WorkingSet.cached_many`)
        instead of one pass per card on first read.  A kind without a
        batch kernel does nothing here; its cards stay lazy."""
        recipe = summary_batch_recipe(self.kind, self.params_dict())
        if recipe is not None:
            WorkingSet.cached_many([n.working_set for n in nodes], *recipe)

    def resemblance(
        self, ours: Summary, theirs: Summary, ids: Collection[int]
    ) -> float:
        """Estimated ``|A ∩ B| / |A ∪ B|`` between two same-scheme cards.

        ``ours`` summarises ``ids`` (``A``, the receiver's working set),
        which the estimate of a searchable kind reads.  Min-wise cards
        use their native matching-positions estimator.  Every other kind
        derives resemblance from its symmetric-difference estimate by
        inclusion-exclusion (the inverse map, so an unclamped estimate
        round-trips exactly); an exceeded CPI bound reads as resemblance
        0.0 — a discrepancy too large to reconcile *is* evidence of low
        overlap.
        """
        if self.kind == "minwise":
            return ours.estimate_resemblance(theirs)  # type: ignore[attr-defined]
        try:
            d = ours.estimate_difference(theirs, ids)
        except DiscrepancyExceeded:
            return 0.0
        total = ours.set_size + theirs.set_size
        union = (total + d) / 2.0
        if union <= 0:
            return 0.0
        intersection = (total - d) / 2.0
        return min(1.0, max(0.0, intersection / union))

    def usefulness(self, receiver: OverlayNode, candidate: OverlayNode) -> float:
        """1 - resemblance: how much new content ``candidate`` offers —
        the one-candidate case of :meth:`usefulness_many`.

        Sources are always maximally useful (they mint fresh symbols);
        this is the admission-control signal from Section 4.
        """
        return self.usefulness_many(receiver, (candidate,))[0]

    def usefulness_many(
        self,
        receiver: OverlayNode,
        candidates: Sequence[OverlayNode],
        card_of: Optional[Callable[[OverlayNode], Summary]] = None,
    ) -> List[float]:
        """``1 - resemblance`` of ``receiver``'s card and each
        candidate's (1.0 for a source), computed from the cards that are
        there: min-wise cards compare in one batch
        (``estimate_resemblance_many``, the estimate kernel of
        :class:`~repro.reconcile.adapters.MinwiseSummary`), every other
        kind pair by pair.  Nothing is stored, so nothing can go stale.

        ``card_of`` looks a node's card up (an epoch passes its
        :class:`EpochTable`'s); ``None`` reads :meth:`card_of`.
        """
        if card_of is None:
            card_of = self.card_of
        cards = [card_of(c) for c in candidates if not c.is_source]
        if not cards:
            return [1.0] * len(candidates)  # the receiver's card is not read
        ours = card_of(receiver)
        if self.kind == "minwise":
            estimates = ours.estimate_resemblance_many(cards)  # type: ignore[attr-defined]
        else:
            estimates = (
                self.resemblance(ours, theirs, receiver.working_set)
                for theirs in cards
            )
        rest = iter(estimates)
        return [1.0 if c.is_source else 1.0 - next(rest) for c in candidates]

    def card_wire_bytes(self, node: OverlayNode) -> int:
        """Honest wire cost of shipping the node's card once."""
        return self.card_of(node).wire_bytes()


def default_scheme() -> SummaryScheme:
    """The calling card peers agree on off-line (Section 4):
    :data:`~repro.reconcile.CALLING_CARD`'s kind and params.  Every
    call returns an equal scheme, so every consumer — the protocol's
    hellos included — reads the same cached entry of a node's working
    set."""
    return SummaryScheme(CALLING_CARD.kind, CALLING_CARD.params_dict())


def _can_serve(node: OverlayNode) -> bool:
    """A source, or a peer holding something to send."""
    return node.is_source or len(node.working_set) > 0


class AdmissionPolicy(Protocol):
    """Decides whether a receiver should accept a candidate sender."""

    def admit(
        self,
        receiver: OverlayNode,
        candidate: OverlayNode,
        table: Optional["EpochTable"] = None,
    ) -> bool: ...


class SketchAdmission:
    """Admit a sender iff its estimated usefulness clears a threshold.

    A threshold of 0 admits everyone except exact-duplicate working sets
    (up to summary noise); the paper's "simple admission control".  Any
    :class:`SummaryScheme` supplies the estimate.

    Admission and rewiring make one judgement off the same two cards.
    An epoch applying a decision passes its :class:`EpochTable`, and an
    add the decision made under this very scheme is judged by the
    utility the decision computed for it (:meth:`EpochTable.utility`):
    the same float, because cards cannot change inside an epoch and the
    batched estimate equals the one-pair estimate bit for bit.  Every
    other admission — joins, builder wiring, direct calls — passes no
    table and estimates the pair.
    """

    def __init__(
        self,
        scheme: SummaryScheme,
        min_usefulness: float = DEFAULT_MIN_USEFULNESS,
    ):
        if not 0.0 <= min_usefulness <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.scheme = scheme
        self.min_usefulness = min_usefulness

    def admit(
        self,
        receiver: OverlayNode,
        candidate: OverlayNode,
        table: Optional["EpochTable"] = None,
    ) -> bool:
        if candidate.is_source:
            return True
        if len(candidate.working_set) == 0:
            return False
        utility = (
            None if table is None else table.utility(self.scheme, receiver, candidate)
        )
        if utility is None:
            utility = self.scheme.usefulness(receiver, candidate)
        return utility >= self.min_usefulness


class OpenAdmission:
    """Admit every candidate that has anything to offer.

    The uninformed baseline (the paper's static and random arms): no
    summaries are consulted, only the structural guards — empty
    candidates cannot serve, sources always can.
    """

    def admit(
        self,
        receiver: OverlayNode,
        candidate: OverlayNode,
        table: Optional["EpochTable"] = None,
    ) -> bool:
        return _can_serve(candidate)


class _Reads(dict):
    """``reads[node]`` is ``read(node)``, read on first use and served
    after: C-level dict hits, one call per node."""

    __slots__ = ("_read",)

    def __init__(self, read: Callable[[OverlayNode], Any]):
        super().__init__()
        self._read = read

    def __missing__(self, node: OverlayNode) -> Any:
        value = self[node] = self._read(node)
        return value


class EpochTable:
    """What one reconfiguration epoch reads about a node, read once.

    ``serves[node]`` is :func:`_can_serve`; ``card_of(node)`` is the
    scheme's :meth:`SummaryScheme.card_of`; ``wire_bytes[node]`` is what
    a scan pays for the card — the scheme's ``card_wire_bytes``, or 0
    for a node that publishes none (a source or an empty set).  Each is
    read on first use and served after.  A table without a scheme has
    only ``serves``.

    The answers are the direct reads because nothing inside an epoch
    adds an id to a set (see :func:`run_epoch`).  A table is not a
    cache: the card still comes from ``card_of`` — the working set's
    cached summary, which stays the only owner — and the table is
    dropped with the epoch (or the direct ``rewire`` call) that made it.
    The one judgement it carries is the decision being applied:
    :meth:`record` keeps one receiver's adds with the utilities that
    chose them, the next decision replaces them, and admission reads
    them back (:meth:`utility`) instead of estimating the pair again.
    Nothing else a scan estimated is kept.
    """

    __slots__ = ("scheme", "serves", "card_of", "wire_bytes", "_decided")

    def __init__(self, scheme: Optional[SummaryScheme] = None):
        self.scheme = scheme
        self._decided = (None, {})  # (receiver, {add: utility})
        serves = self.serves = _Reads(_can_serve)
        if scheme is None:
            self.card_of = self.wire_bytes = None
            return
        self.card_of = _Reads(scheme.card_of).__getitem__
        self.wire_bytes = _Reads(
            lambda node: 0
            if node.is_source or not serves[node]
            else scheme.card_wire_bytes(node)
        )

    @classmethod
    def of(cls, policy: "ReconfigurationPolicy") -> "EpochTable":
        """The table an epoch of ``policy`` reads through: over its
        ``scheme`` if it has one (an uninformed policy has none)."""
        return cls(getattr(policy, "scheme", None))

    def record(
        self,
        receiver: OverlayNode,
        adds: List[OverlayNode],
        utilities: Iterable[float],
    ) -> List[OverlayNode]:
        """Keep ``receiver``'s decision — its ``adds`` and the utility
        each was chosen at — in place of the last one; returns ``adds``."""
        self._decided = (receiver, dict(zip(adds, utilities)))
        return adds

    def utility(
        self, scheme: SummaryScheme, receiver: OverlayNode, candidate: OverlayNode
    ) -> Optional[float]:
        """The utility the recorded decision gave ``candidate`` as a
        sender to ``receiver`` under this very ``scheme``; ``None`` when
        it made no such add."""
        decided_for, utilities = self._decided
        if receiver is not decided_for or scheme is not self.scheme:
            return None
        return utilities.get(candidate)


class ReconfigurationPolicy(Protocol):
    """Periodically rewires a receiver's sender slots.

    ``table`` is the epoch's :class:`EpochTable`; a direct call passes
    none and the policy reads through a table of its own.  A policy
    that estimated its adds may record them there
    (:meth:`EpochTable.record`) for the admission that applies them.

    A node is its object: ``receiver``, ``current_senders`` and
    ``candidates`` must hand over the very objects the engine holds
    (one per node).  A different object with the same ``node_id`` is
    not recognised as the receiver or as a current sender.
    """

    def rewire(
        self,
        receiver: OverlayNode,
        current_senders: List[OverlayNode],
        candidates: List[OverlayNode],
        table: Optional[EpochTable] = None,
    ) -> Tuple[List[OverlayNode], List[OverlayNode]]: ...


def _usable_candidates(
    receiver: OverlayNode,
    current_senders: List[OverlayNode],
    candidates: List[OverlayNode],
    serves: Mapping[OverlayNode, bool],
) -> List[OverlayNode]:
    """Candidates a rewiring pass may consider: not the receiver, not
    already a sender, and able to serve (zero-working-set peers are
    rejected outright).  Nodes compare by identity, which is
    :class:`ReconfigurationPolicy`'s one-object-per-node rule: the
    filter then loads no node attribute, and at 10k nodes those loads
    are cache misses."""
    current = set(current_senders)
    return [
        c for c in candidates if c is not receiver and c not in current and serves[c]
    ]


class UtilityRewiring:
    """Drop the least-useful sender when a clearly better candidate exists.

    Utility is the scheme's usefulness estimate; a swap happens only when
    the best candidate beats the worst current sender by ``hysteresis``
    (avoiding the oscillation the paper's "frequent reconnections" warn
    about).  Returns (senders_to_drop, senders_to_add).  Sources are
    never dropped: their utility is the 1.0 maximum, which no candidate
    can exceed by any non-negative hysteresis.
    """

    def __init__(
        self,
        scheme: SummaryScheme,
        hysteresis: float = DEFAULT_HYSTERESIS,
    ):
        # NaN or inf would make ``best > worst + hysteresis`` always
        # false: the informed arm would silently never swap.
        if not (math.isfinite(hysteresis) and hysteresis >= 0):
            raise ValueError(f"hysteresis must be finite and >= 0, got {hysteresis!r}")
        self.scheme = scheme
        self.hysteresis = hysteresis

    def rewire(
        self,
        receiver: OverlayNode,
        current_senders: List[OverlayNode],
        candidates: List[OverlayNode],
        table: Optional[EpochTable] = None,
    ) -> Tuple[List[OverlayNode], List[OverlayNode]]:
        """Decide, and record the adds' utilities on ``table`` for the
        admission that applies them (:meth:`EpochTable.record`)."""
        if table is None:
            table = EpochTable(self.scheme)
        drops, adds, utilities = self._decide(
            receiver, current_senders, candidates, table
        )
        return drops, table.record(receiver, adds, utilities)

    def _decide(
        self,
        receiver: OverlayNode,
        current_senders: List[OverlayNode],
        candidates: List[OverlayNode],
        table: EpochTable,
    ) -> Tuple[List[OverlayNode], List[OverlayNode], List[float]]:
        """``(drops, adds, each add's utility)``."""
        usable = _usable_candidates(receiver, current_senders, candidates, table.serves)
        if not usable:
            return [], [], []

        # Fill empty slots first.  Ties keep candidate order (the sort is
        # stable), and a swap names the first worst and the first best.
        free_slots = receiver.max_connections - len(current_senders)
        if free_slots > 0:
            utility = self.scheme.usefulness_many(receiver, usable, table.card_of)
            ranked = sorted(
                range(len(usable)), key=utility.__getitem__, reverse=True
            )
            chosen = [i for i in ranked[:free_slots] if utility[i] > 0]
            return [], [usable[i] for i in chosen], [utility[i] for i in chosen]

        if not current_senders:
            return [], [], []
        held = len(current_senders)
        utility = self.scheme.usefulness_many(
            receiver, current_senders + usable, table.card_of
        )
        worst = min(utility[:held])
        best = max(utility[held:])
        if best > worst + self.hysteresis:
            return (
                [current_senders[utility.index(worst)]],
                [usable[utility.index(best, held) - held]],
                [best],
            )
        return [], [], []


class RandomRewiring:
    """The uninformed baseline: swap a random sender for a random peer.

    Fills free slots with uniformly drawn candidates; at capacity, drops
    one uniformly chosen non-source sender for one uniformly chosen
    candidate.  No summaries are consulted — this is the control arm the
    paper's informed policies are measured against.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def rewire(
        self,
        receiver: OverlayNode,
        current_senders: List[OverlayNode],
        candidates: List[OverlayNode],
        table: Optional[EpochTable] = None,
    ) -> Tuple[List[OverlayNode], List[OverlayNode]]:
        serves = (table or EpochTable()).serves
        usable = _usable_candidates(receiver, current_senders, candidates, serves)
        if not usable:
            return [], []
        free_slots = receiver.max_connections - len(current_senders)
        if free_slots > 0:
            return [], sample(self.rng, usable, min(free_slots, len(usable)))
        droppable = [s for s in current_senders if not s.is_source]
        if not droppable:
            return [], []
        return [choice(self.rng, droppable)], [choice(self.rng, usable)]


def run_epoch(
    policy: ReconfigurationPolicy,
    rng: random.Random,
    budget: int,
    receivers: Iterable[OverlayNode],
    pool_of: Callable[[OverlayNode], List[OverlayNode]],
    senders_of: Callable[[OverlayNode], List[OverlayNode]],
    table: Optional[EpochTable] = None,
) -> Iterator[Tuple[OverlayNode, int, List[OverlayNode], List[OverlayNode]]]:
    """One reconfiguration epoch, for the packet and the flow engine
    alike: every receiver scans, pays and decides.

    Per receiver: take its candidate pool (a ``budget`` smaller than the
    pool draws that many from ``rng``), price the scan — each scanned
    card crosses the wire once, at the scheme's ``card_wire_bytes``;
    sources and empty peers publish nothing and nobody pays for its own
    card — and ask ``policy.rewire``.  Yields ``(receiver,
    control_bytes, drops, adds)``.

    A generator on purpose: the engine applies each decision before the
    next receiver samples, because applying one draws from the same
    ``rng`` (a new connection builds a strategy).

    Every read about a node goes through one :class:`EpochTable` for
    the whole epoch — whether it can serve, its card, its card's wire
    size — so each is read once, and only if somebody needs it: the
    scan's pricing, the policy's candidate filter and its usefulness
    batch share it.  That is exact because cards cannot change inside
    an epoch: the epoch runs inside one scheduler event, and applying a
    decision (connecting, disconnecting, building a strategy) never
    adds an id to a set.  The engine hands in the table
    (:meth:`EpochTable.of` the policy; ``None`` makes one) and passes
    it to the admission that applies each decision, which reads the
    decision's recorded utilities rather than estimating each add
    again — so an epoch estimates each pair once.  The table dies with
    the epoch; nothing is stored on the scheme, the nodes or the engine.

    For the same reason the cards can be brought current up front:
    before the first receiver samples, the scheme's
    :meth:`SummaryScheme.refresh` rebuilds or absorbs, in one batched
    pass, the card of every node the epoch can read — each non-source
    receiver or pool member that holds something.  The table's
    ``card_of`` then finds them current in the working sets' caches.
    """
    if table is None:
        table = EpochTable.of(policy)
    scheme = table.scheme
    receivers = list(receivers)
    pools = [pool_of(receiver) for receiver in receivers]
    if scheme is not None:
        serves = table.serves
        distinct_pools = {id(pool): pool for pool in pools}.values()
        scheme.refresh(
            node
            for node in dict.fromkeys(chain(receivers, *distinct_pools))
            if not node.is_source and serves[node]
        )
    wire_bytes = table.wire_bytes
    for receiver, pool in zip(receivers, pools):
        candidates = (
            sample(rng, pool, budget) if budget and budget < len(pool) else pool
        )
        control_bytes = 0
        if wire_bytes is not None:
            for c in candidates:
                if c is not receiver:
                    control_bytes += wire_bytes[c]
        drops, adds = policy.rewire(receiver, senders_of(receiver), candidates, table)
        yield receiver, control_bytes, drops, adds
