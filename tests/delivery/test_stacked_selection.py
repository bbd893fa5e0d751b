"""The stacked greedy against the per-card loop.

``select_senders`` over min-wise summaries of one family screens and
picks against one stacked card matrix when numpy is there — from a
:class:`CandidateStack` the caller keeps, or a list it stacks per call
— and goes card by card without numpy.  The per-card loop is the
reference: the stacked selection must equal it field for field and
float for float, and ``plan_join`` must leave the RNG where the
per-card plan leaves it.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.delivery.orchestrator import (
    CandidateSender,
    CandidateStack,
    plan_join,
    select_senders,
)
from repro.reconcile import SummaryError, build_summary
from repro.reconcile.adapters import MinwiseStack, MinwiseSummary

# A small family over a small universe: equal minima, identical cards
# and tied gains come up often.
ENTRIES, UNIVERSE, SEED = 32, 1 << 8, 3


def card(ids):
    return build_summary(
        "minwise", ids, entries=ENTRIES, universe=UNIVERSE, seed=SEED
    )


def _fields(result):
    return (
        result.chosen,
        result.rejected_identical,
        result.estimated_coverage.hex(),
        [(k, v.hex()) for k, v in result.estimated_gains.items()],
    )


def _gate(numpy_on):
    """Leave numpy alone, or block it the way the no-numpy lane does."""
    if numpy_on:
        return mock.patch.object(batch, "_numpy", batch._numpy)
    return mock.patch.object(batch, "_numpy", lambda: None)


needs_numpy = pytest.mark.skipif(
    batch._numpy() is None, reason="without numpy nothing is stacked"
)
GATES = [pytest.param(True, marks=needs_numpy), False]

ids_st = st.frozensets(st.integers(0, 95), max_size=40)


@st.composite
def selections(draw):
    """A receiver and candidates covering the greedy's edges: empty
    cards, an empty receiver, twins of the receiver, duplicate cards
    under distinct ids, one peer id under two cards, reported sizes
    that differ from the card's."""
    receiver = draw(ids_st)
    cands = []
    for i in range(draw(st.integers(1, 8))):
        source = draw(st.sampled_from(["fresh", "receiver", "twin", "empty"]))
        if source == "receiver":
            ids = receiver
        elif source == "twin" and cands:
            ids = draw(st.sampled_from([c[1] for c in cands]))
        elif source == "empty":
            ids = frozenset()
        else:
            ids = draw(ids_st)
        # One candidate in three shares the peer id "dup".
        peer = draw(st.sampled_from([f"c{i}", f"c{i}", "dup"]))
        size = draw(st.one_of(st.just(len(ids)), st.integers(0, 60)))
        cands.append((peer, ids, size))
    max_senders = draw(st.integers(0, len(cands) + 2))
    return receiver, cands, max_senders


def _candidates(cands):
    return [CandidateSender(peer, card(ids), size) for peer, ids, size in cands]


def _stacks(candidates, receiver_card):
    """Whether ``receiver_card`` is compared against ``candidates`` by
    array: the stack's greedy cover answers."""
    cards = MinwiseStack()
    for c in candidates:
        cards.append(c.card, c.set_size, c.peer_id)
    return cards.greedy_cover(receiver_card, 0, 1, 1.0, 0.95) is not None


def _per_card(select):
    """``select()`` on the per-card loop: numpy blocked."""
    with _gate(False):
        return select()


@pytest.mark.parametrize("numpy_on", GATES)
@settings(max_examples=300, deadline=None)
@given(case=selections(), min_gain=st.sampled_from([1.0, 0.0, -1.0, 3.5]))
def test_stacked_selection_equals_the_per_card_loop(numpy_on, case, min_gain):
    receiver, cands, max_senders = case
    mine = card(receiver)
    candidates = _candidates(cands)
    stack = CandidateStack(candidates)

    def both(bar):
        loop = _per_card(
            lambda: select_senders(mine, len(receiver), candidates, max_senders, bar)
        )
        with _gate(numpy_on):
            for given_cands in (stack, candidates):
                got = select_senders(mine, len(receiver), given_cands, max_senders, bar)
                assert _fields(got) == _fields(loop)
        return loop

    with _gate(numpy_on):
        assert _stacks(candidates, mine) == numpy_on
    loop = both(min_gain)
    # A gain exactly at the bar still counts; just above it stops.
    for gain in loop.estimated_gains.values():
        both(gain)
        both(gain + 1e-9)


@pytest.mark.parametrize("numpy_on", GATES)
@settings(max_examples=150, deadline=None)
@given(case=selections(), seed=st.integers(0, 2**32), demand=st.integers(0, 200))
def test_stacked_plan_join_equals_the_per_card_plan(numpy_on, case, seed, demand):
    receiver, cands, max_senders = case
    mine = card(receiver)
    candidates = _candidates(cands)

    def plan(given_cands):
        rng = random.Random(seed)
        plan = plan_join(
            mine, len(receiver), given_cands, max_senders, demand, rng, now=1.5
        )
        return (
            _fields(plan.selection), plan.groups, list(plan.demand.items()),
            plan.decided_at, rng.getstate(),
        )

    loop = _per_card(lambda: plan(candidates))
    with _gate(numpy_on):
        assert plan(CandidateStack(candidates)) == loop
        assert plan(candidates) == loop


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(case=selections(), extra=st.lists(ids_st, max_size=4))
def test_appended_rows_equal_a_fresh_stack(case, extra):
    receiver, cands, max_senders = case
    candidates = _candidates(cands)
    grown = CandidateStack(candidates[:1])
    for cand in candidates[1:] + _candidates(
        [(f"x{i}", ids, len(ids)) for i, ids in enumerate(extra)]
    ):
        grown.append(cand)
    mine = card(receiver)
    assert _stacks(grown, mine)
    assert _fields(select_senders(mine, len(receiver), grown, max_senders)) == _fields(
        _per_card(lambda: select_senders(mine, len(receiver), list(grown), max_senders))
    )


class TestWhatStacks:
    def test_a_mixed_family_takes_the_per_card_loop_which_refuses_it(self):
        stranger = build_summary(
            "minwise", [1, 2, 3], entries=ENTRIES, universe=UNIVERSE, seed=SEED + 1
        )
        cands = [CandidateSender("a", card([1, 2, 3]), 3)]
        cands.append(CandidateSender("b", stranger, 3))
        assert not _stacks(cands, card([1, 2, 3]))
        with pytest.raises(SummaryError, match="family"):
            select_senders(card([1, 2, 3]), 3, CandidateStack(cands), max_senders=1)

    def test_another_family_stops_the_stacking(self):
        other = build_summary(
            "minwise", [5], entries=ENTRIES, universe=UNIVERSE, seed=4
        )
        cands = [CandidateSender("a", card([1, 2]), 2)]
        assert not _stacks(cands, other)  # the receiver is a stranger
        cands.append(CandidateSender("b", other, 1))
        assert not _stacks(cands, card([1]))  # and so is a candidate

    @needs_numpy
    def test_an_empty_stack_answers_nothing(self):
        assert not _stacks([], card([1]))
        assert _stacks([CandidateSender("a", card([1, 2]), 2)], card([1]))


@pytest.mark.parametrize("full_size", [40, 100])
def test_the_zero_set_size_rule_holds_for_cards_off_the_wire(full_size):
    """A card whose header says ``set_size == 0`` compares as 0.0 with
    another such card whatever its minima say — the estimate kernel's
    rule, which the stacked greedy keeps, and drops once the cover has
    merged a card of a non-empty set (``full_size`` 100 picks that card
    first)."""
    full = card(range(40))
    payload = dict(full.to_payload(), set_size=0)
    hollow = MinwiseSummary.from_payload(payload)
    candidates = [
        CandidateSender("zero", MinwiseSummary.from_payload(payload), 40),
        CandidateSender("full", full, full_size),
    ]
    loop = _per_card(
        lambda: select_senders(hollow, 0, candidates, max_senders=2, min_gain=0.0)
    )
    stacked = select_senders(hollow, 0, candidates, max_senders=2, min_gain=0.0)
    assert _fields(stacked) == _fields(loop)
    assert loop.chosen == (["zero", "full"] if full_size == 40 else ["full"])
