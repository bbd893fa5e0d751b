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
from functools import lru_cache
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, List, Mapping
from typing import Optional, Protocol, Sequence, Tuple

from repro.delivery.working_set import WorkingSet
from repro.exact.cpi import DiscrepancyExceeded
from repro.overlay.node import OverlayNode
from repro.reconcile import CALLING_CARD, SummaryPolicy
from repro.reconcile.adapters import MinwiseSummary, resemblance_rows
from repro.reconcile.base import Summary
from repro.reconcile.registry import build_summary, summary_batch_recipe
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

    def refresh(self, nodes: Sequence[OverlayNode]) -> List[Summary]:
        """The cards of ``nodes``, in order, brought current together:
        the entries :meth:`card_of` reads, rebuilt or absorbed in one
        batched kernel pass (:meth:`~repro.delivery.working_set.
        WorkingSet.cached_many`) instead of one pass per card.  A kind
        without a batch kernel reads each card in turn."""
        recipe = summary_batch_recipe(self.kind, self.params_dict())
        if recipe is None:
            return [self.card_of(n) for n in nodes]
        return WorkingSet.cached_many([n.working_set for n in nodes], *recipe)

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
        table: Optional["EpochTable"] = None,
    ) -> List[float]:
        """``1 - resemblance`` of ``receiver``'s card and each
        candidate's (1.0 for a source): :meth:`EpochTable.usefulness`
        over ``table``, the epoch's rows, when it is a table of this
        very scheme, and over a table of just these nodes otherwise.
        Either way the cards are the working sets' cached ones, so
        nothing can go stale.
        """
        if table is None or table.scheme is not self:
            table = EpochTable(self, chain((receiver,), candidates))
        return table.usefulness(receiver, candidates)

    def card_wire_bytes(self, card: Summary) -> int:
        """Honest wire cost of shipping ``card`` once."""
        return card.wire_bytes()


@lru_cache(maxsize=32)
def _blank_card(kind: str, params: tuple) -> Summary:
    """The card of a set holding nothing: what an :class:`EpochTable`
    compares a source or an empty peer as.  Cards are immutable and a
    pure function of ``(kind, params, ids)``, so one serves every run."""
    return build_summary(kind, (), **dict(params))


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


class EpochTable:
    """What one reconfiguration epoch reads about a node, read once.

    :meth:`fill` reads the nodes an epoch can reach.  ``serves[node]``
    is :func:`_can_serve`.  Over a scheme, the table brings the cards
    of the *live* nodes — non-source peers holding something — current
    in one :meth:`SummaryScheme.refresh` and keeps one row per node: a
    live node's is its card's own row (a min-wise card's ``array('q')``
    buffer, not a copy; any other kind's card itself), with the family
    checked once, here, and every source and empty peer shares the
    row of the scheme's card of no ids.
    ``wire_bytes[node]`` is what a scan pays for the card — the
    scheme's ``card_wire_bytes`` of it, or 0 for a node that publishes
    none.  A table without a scheme has only ``serves``.

    The answers are the direct reads because nothing inside an epoch
    adds an id to a set (see :func:`run_epoch`).  A table is not a
    cache: each card stays owned by its working set, and the table is
    dropped with the epoch (or the direct ``rewire`` call) that made it.
    The one judgement it carries is the decision being applied:
    :meth:`record` keeps one receiver's adds with the utilities that
    chose them, the next decision replaces them, and admission reads
    them back (:meth:`utility`) instead of estimating the pair again.
    Nothing else a scan estimated is kept.
    """

    __slots__ = ("scheme", "serves", "wire_bytes", "_rows", "_blank", "_decided")

    def __init__(
        self,
        scheme: Optional[SummaryScheme] = None,
        nodes: Optional[Iterable[OverlayNode]] = None,
    ):
        self.scheme = scheme
        self._decided = (None, {})  # (receiver, {add: utility})
        self.serves: dict = {}
        self.wire_bytes: Optional[dict] = None if scheme is None else {}
        self._rows: dict = {}
        self._blank = None
        if nodes is not None:
            self.fill(nodes)

    def fill(self, nodes: Iterable[OverlayNode]) -> None:
        """Read ``nodes`` (repeats are read once): whether each can
        serve and, over a scheme, each one's row and wire size, off one
        refresh of the live nodes' cards."""
        nodes = list(dict.fromkeys(nodes))
        serving = [_can_serve(n) for n in nodes]
        self.serves.update(zip(nodes, serving))
        scheme = self.scheme
        if scheme is None:
            return
        live = [n for n, can in zip(nodes, serving) if can and not n.is_source]
        cards = scheme.refresh(live)
        blank = _blank_card(scheme.kind, scheme.params)
        if type(blank) is MinwiseSummary:
            self._blank = blank.row
            rows: Sequence = blank.rows_of(cards)
        else:
            self._blank = blank
            rows = cards
        self._rows.update(dict.fromkeys(nodes, self._blank))
        self._rows.update(zip(live, rows))
        self.wire_bytes.update(dict.fromkeys(nodes, 0))
        self.wire_bytes.update(zip(live, map(scheme.card_wire_bytes, cards)))

    def usefulness(
        self, receiver: OverlayNode, candidates: Sequence[OverlayNode]
    ) -> List[float]:
        """``1 - resemblance`` of ``receiver``'s row and each
        candidate's: :meth:`SummaryScheme.usefulness_many`, for nodes
        this table has read.

        Min-wise rows compare in one :func:`~repro.reconcile.adapters.
        resemblance_rows` call, and ``1.0 - matches / entries`` is the
        per-pair float bit for bit.  A source's or an empty peer's blank
        row matches no position of a live receiver's, so it scores 1.0
        without a source check; a blank receiver (an empty set) finds
        everything fully useful, as the per-pair estimate does.  Every
        other kind compares card by card through
        :meth:`SummaryScheme.resemblance`, sources at 1.0.
        """
        rows = self._rows
        mine = rows[receiver]
        if not isinstance(mine, Summary):  # a min-wise row
            if mine is self._blank or not candidates:
                return [1.0] * len(candidates)
            theirs = [rows[c] for c in candidates]
            return [1.0 - r for r in resemblance_rows(mine, theirs)]
        scheme, ids = self.scheme, receiver.working_set
        return [
            1.0 if c.is_source else 1.0 - scheme.resemblance(mine, rows[c], ids)
            for c in candidates
        ]

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
            table = EpochTable(
                self.scheme, chain((receiver,), current_senders, candidates)
            )
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
            utility = self.scheme.usefulness_many(receiver, usable, table)
            ranked = sorted(
                range(len(usable)), key=utility.__getitem__, reverse=True
            )
            chosen = [i for i in ranked[:free_slots] if utility[i] > 0]
            return [], [usable[i] for i in chosen], [utility[i] for i in chosen]

        if not current_senders:
            return [], [], []
        held = len(current_senders)
        utility = self.scheme.usefulness_many(
            receiver, current_senders + usable, table
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
        serves = (table or EpochTable(None, candidates)).serves
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
    the whole epoch, filled before the first receiver samples over
    every receiver and pool member (a receiver's senders come from its
    pool): whether it can serve, and, over a scheme, one row per node
    off one :meth:`SummaryScheme.refresh` that rebuilds or absorbs
    every live card in one batched pass.  The scan's price is then a
    sum of the scanned rows' wire sizes, and each usefulness batch one
    gather and one comparison of rows
    (:meth:`EpochTable.usefulness`).  That is exact because cards
    cannot change inside an epoch: the epoch runs inside one scheduler
    event, and applying a decision (connecting, disconnecting, building
    a strategy) never adds an id to a set.  The engine hands in the
    table (:meth:`EpochTable.of` the policy; ``None`` makes one) and
    passes it to the admission that applies each decision, which reads
    the decision's recorded utilities rather than estimating each add
    again — so an epoch estimates each pair once.  The table dies with
    the epoch; nothing is stored on the scheme, the nodes or the engine.
    """
    if table is None:
        table = EpochTable.of(policy)
    receivers = list(receivers)
    pools = [pool_of(receiver) for receiver in receivers]
    distinct_pools = {id(pool): pool for pool in pools}.values()
    table.fill(chain(receivers, *distinct_pools))
    wire_bytes = table.wire_bytes
    for receiver, pool in zip(receivers, pools):
        candidates = (
            sample(rng, pool, budget) if budget and budget < len(pool) else pool
        )
        control_bytes = 0
        if wire_bytes is not None:
            control_bytes = sum(
                [wire_bytes[c] for c in candidates if c is not receiver]
            )
        drops, adds = policy.rewire(receiver, senders_of(receiver), candidates, table)
        yield receiver, control_bytes, drops, adds
