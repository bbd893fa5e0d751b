"""Sketch-driven sender selection and load balancing.

Section 4 closes with the protocol uses of calling cards beyond pairwise
estimation: a receiver comparing candidate senders can (a) reject those
whose content is identical to its own, (b) *combine* sketches — the
coordinate-wise minimum is the sketch of the union — to judge what a
*group* of senders jointly offers, and (c) "distribute the load among
the senders whose content is identical, as shown by the comparison of
the summaries submitted by all the sender candidates."

This module implements those three decisions as a greedy max-coverage
selection entirely from calling cards — no working sets cross the wire.
A card is anything offering ``estimate_resemblance(other)`` and
``merge(other)``: the min-wise :class:`~repro.reconcile.base.Summary`
every overlay node publishes.  Min-wise cards of one family are
screened and chosen against one stacked card matrix
(:class:`CandidateStack`, whose array kernel is the card's own,
:class:`~repro.reconcile.adapters.MinwiseStack`): a greedy round is one
array comparison and the coverage card is one row, lowered by an
elementwise minimum.  Any other card, and every card without numpy,
takes the per-card loop below; both give the same selection, float for
float.
"""

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.reconcile.adapters import MinwiseStack
from repro.seeding import shuffle

#: Resemblance above which two candidates are treated as holding the
#: same content (sketch noise tolerance).
IDENTICAL_THRESHOLD = 0.95


@dataclass
class CandidateSender:
    """One prospective sender, known only through its calling card."""

    peer_id: str
    card: Any
    set_size: int


class CandidateStack(Sequence[CandidateSender]):
    """Candidate senders with their cards stacked for the greedy cover.

    A sequence of :class:`CandidateSender` whose min-wise cards also sit
    in one :class:`~repro.reconcile.adapters.MinwiseStack`, so
    :func:`select_senders` screens and runs every greedy round against
    one matrix instead of re-stacking the cards per round.  A join wave
    stacks the live cards once and appends each joiner that holds ids
    after its connects; the stack is good only while no card in it
    changes — one scheduler event.
    """

    def __init__(self, candidates: Iterable[CandidateSender]):
        self._candidates: List[CandidateSender] = []
        self._cards = MinwiseStack()
        for cand in candidates:
            self.append(cand)

    def __len__(self) -> int:
        return len(self._candidates)

    def __getitem__(self, index):
        return self._candidates[index]

    def __iter__(self) -> Iterator[CandidateSender]:
        return iter(self._candidates)

    def append(self, candidate: CandidateSender) -> None:
        """Add a candidate after the others, its card as the last row."""
        self._candidates.append(candidate)
        self._cards.append(candidate.card, candidate.set_size, candidate.peer_id)


@dataclass
class SelectionResult:
    """Outcome of a greedy sender selection."""

    chosen: List[str] = field(default_factory=list)
    rejected_identical: List[str] = field(default_factory=list)
    estimated_coverage: float = 0.0  # estimated |receiver ∪ chosen|
    estimated_gains: Dict[str, float] = field(default_factory=dict)


def _union_size(size_a: float, size_b: float, r: float) -> float:
    """``|A ∪ B|`` from the two set sizes and their resemblance ``r``.

    From ``r = |A ∩ B| / |A ∪ B|`` and ``|A| + |B| = |A ∪ B| + |A ∩ B|``:
    ``|A ∪ B| = (|A| + |B|) / (1 + r)``.
    """
    return (size_a + size_b) / (1.0 + r)


def select_senders(
    receiver_card: Any,
    receiver_size: int,
    candidates: Sequence[CandidateSender],
    max_senders: int,
    min_gain: float = 1.0,
) -> SelectionResult:
    """Greedy max-coverage choice of up to ``max_senders`` senders.

    At each step the candidate whose union with the accumulated coverage
    card adds the most estimated symbols is chosen; candidates whose
    estimated gain over the *receiver alone* is negligible are rejected
    as identical-content peers (the paper's admission control).

    Min-wise summaries of the receiver card's family are screened and
    chosen from by one stacked matrix (:meth:`~repro.reconcile.
    adapters.MinwiseStack.greedy_cover`) when numpy is there; any other
    cards go card by card, to the same result.  A caller that plans
    many receivers over one candidate set passes a
    :class:`CandidateStack` and keeps it; a list is stacked per call.

    Args:
        receiver_card: the receiver's own calling card.
        receiver_size: the receiver's working-set size.
        candidates: prospective senders' calling cards.
        max_senders: connection slots available.
        min_gain: minimum estimated new symbols for a pick to count.
    """
    if max_senders < 0:
        raise ValueError("max_senders must be non-negative")
    if not isinstance(candidates, CandidateStack):
        candidates = CandidateStack(candidates)
    stacked = candidates._cards.greedy_cover(
        receiver_card, receiver_size, max_senders, min_gain, IDENTICAL_THRESHOLD
    )
    if stacked is not None:
        screened, picks, coverage = stacked
        return SelectionResult(
            chosen=[candidates[i].peer_id for i, _gain in picks],
            rejected_identical=[candidates[i].peer_id for i in screened],
            estimated_coverage=coverage,
            estimated_gains={candidates[i].peer_id: gain for i, gain in picks},
        )
    result = SelectionResult()
    coverage_card = receiver_card
    coverage_size = float(receiver_size)
    remaining = list(candidates)

    # Pre-screen: identical-to-receiver candidates are rejected outright.
    screened = []
    for cand in remaining:
        r = receiver_card.estimate_resemblance(cand.card)
        if r >= IDENTICAL_THRESHOLD and cand.set_size <= receiver_size:
            result.rejected_identical.append(cand.peer_id)
        else:
            screened.append(cand)
    remaining = screened

    while remaining and len(result.chosen) < max_senders:
        best: Optional[Tuple[float, CandidateSender]] = None
        for cand in remaining:
            r = coverage_card.estimate_resemblance(cand.card)
            gain = _union_size(coverage_size, cand.set_size, r) - coverage_size
            if best is None or gain > best[0]:
                best = (gain, cand)
        assert best is not None
        gain, cand = best
        if gain < min_gain:
            break  # nobody left offers anything new
        result.chosen.append(cand.peer_id)
        result.estimated_gains[cand.peer_id] = gain
        coverage_size += gain
        coverage_card = coverage_card.merge(cand.card)
        remaining = [c for c in remaining if c.peer_id != cand.peer_id]

    result.estimated_coverage = coverage_size
    return result


@dataclass
class JoinPlan:
    """A joining receiver's complete connection plan, from cards alone."""

    selection: SelectionResult
    groups: List[List[str]]  # replica groups among the *chosen* senders
    demand: Dict[str, int]  # symbols requested per chosen sender
    decided_at: Optional[float] = None  # event-clock timestamp, if any


def plan_join(
    receiver_card: Any,
    receiver_size: int,
    candidates: Sequence[CandidateSender],
    max_senders: int,
    symbols_desired: int,
    rng: random.Random,
    now: Optional[float] = None,
) -> JoinPlan:
    """The full join decision: select senders, group replicas, split demand.

    This is the sequence a receiver runs when it enters the overlay (or
    when a flash-crowd scenario schedules its join event): greedy
    max-coverage selection over calling cards, single-link replica
    grouping among the chosen senders, and demand allocation across
    groups.  ``now`` stamps the decision with the simulation clock so
    time-series recorders can correlate joins with delivery.
    """
    selection = select_senders(
        receiver_card, receiver_size, candidates, max_senders
    )
    chosen = [c for c in candidates if c.peer_id in selection.chosen]
    groups = group_identical_senders(chosen)
    demand = split_demand(symbols_desired, groups, rng=rng)
    return JoinPlan(selection=selection, groups=groups, demand=demand, decided_at=now)


def group_identical_senders(
    candidates: Sequence[CandidateSender],
    threshold: float = IDENTICAL_THRESHOLD,
) -> List[List[str]]:
    """Cluster candidates whose calling cards say they hold the same set.

    Single-link grouping over pairwise resemblance — adequate because
    "identical" is transitive up to sketch noise.  Used to spread load:
    one stream's worth of demand can be split across a whole group.
    """
    groups: List[List[CandidateSender]] = []
    for cand in candidates:
        placed = False
        for group in groups:
            rep = group[0]
            if rep.card.estimate_resemblance(cand.card) >= threshold:
                group.append(cand)
                placed = True
                break
        if not placed:
            groups.append([cand])
    return [[c.peer_id for c in group] for group in groups]


def split_demand(
    symbols_desired: int,
    groups: Sequence[Sequence[str]],
    rng: random.Random,
) -> Dict[str, int]:
    """Allocate a symbol demand across sender groups, balancing inside each.

    Demand is divided evenly across groups (each group offers distinct
    content), then evenly across a group's members (identical content —
    any member can serve any share).  Remainders go to randomly chosen
    members so repeated splits do not always load the same peer.
    """
    if symbols_desired < 0:
        raise ValueError("demand must be non-negative")
    if not groups:
        return {}
    allocation: Dict[str, int] = {}
    base_group = symbols_desired // len(groups)
    extra_groups = symbols_desired % len(groups)
    group_order = list(range(len(groups)))
    shuffle(rng, group_order)
    for rank, gi in enumerate(group_order):
        members = list(groups[gi])
        demand = base_group + (1 if rank < extra_groups else 0)
        base_member = demand // len(members)
        extra_members = demand % len(members)
        shuffle(rng, members)
        for mrank, member in enumerate(members):
            allocation[member] = base_member + (1 if mrank < extra_members else 0)
    return allocation
