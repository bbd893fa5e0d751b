"""``WorkingSet.cached_many`` is ``cached`` over many sets, to the bit.

An epoch brings every card it can read current in one batched pass
(:meth:`repro.overlay.SummaryScheme.refresh`).  Each card that pass
leaves must be what a per-set :meth:`WorkingSet.cached` read would
have left: the same row and ``set_size`` (ids beyond the min-wise
universe fold into it, and may alias ids already held), the same stamp,
and the same object wherever ``cached`` keeps one — a served card.
Sets are served, grown and built for the first time in one batch; with
numpy and without.  Either way an absorbed card is the build over the
whole set, row and ``set_size``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.delivery.working_set import WorkingSet
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import SummaryScheme
from repro.reconcile import build_summary
from repro.reconcile.registry import summary_batch_recipe, summary_recipe

PARAMS = {"entries": 16, "seed": 3}
RECIPE = summary_recipe("minwise", PARAMS)
BATCH = summary_batch_recipe("minwise", PARAMS)
KEY = RECIPE[0]

# Few distinct residues, so fresh ids at and beyond 2**32 and 2**40
# alias ids already held once the card folds them into its universe.
_ids = st.one_of(
    st.integers(0, 30),
    st.integers(0, 30).map(lambda i: (1 << 32) + i),
    st.integers(0, 30).map(lambda i: (1 << 40) + i),
)

#: What happens to a set between its last card read and the batch.
HISTORIES = ("served", "grown", "first")


@st.composite
def _worlds(draw):
    return draw(
        st.lists(
            st.tuples(
                st.lists(_ids, max_size=12),
                st.sampled_from(HISTORIES),
                st.lists(_ids, min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=8,
        )
    )


def _world(plan):
    """Fresh working sets living ``plan``; returns them and the card
    each held before the batch (``None`` if it held none)."""
    sets, before = [], []
    for initial, history, more in plan:
        ws = WorkingSet(initial)
        card = None if history == "first" else ws.cached(*RECIPE)
        if history == "grown":
            for symbol_id in more:
                ws.add(symbol_id)
        sets.append(ws)
        before.append(card)
    return sets, before


def _lanes():
    return ["numpy", "scalar"] if batch._numpy() is not None else ["scalar"]


def _as_seen(sets, before, cards):
    return [
        (
            card._row,
            card.set_size,
            ws._derived[KEY][0],
            ws.version,
            card is old,
        )
        for ws, old, card in zip(sets, before, cards)
    ]


@pytest.mark.parametrize("lane", _lanes())
@settings(max_examples=200, deadline=None)
@given(plan=_worlds())
def test_cached_many_equals_cached_set_by_set(lane, plan):
    with pytest.MonkeyPatch.context() as mp:
        if lane == "scalar":
            mp.setattr(batch, "_numpy", lambda: None)
        one_sets, one_before = _world(plan)
        one = [ws.cached(*RECIPE) for ws in one_sets]
        many_sets, many_before = _world(plan)
        many = WorkingSet.cached_many(many_sets, *BATCH)
        # And a read after the batch is served the batch's card.
        assert all(ws.cached(*RECIPE) is card for ws, card in zip(many_sets, many))
    assert _as_seen(many_sets, many_before, many) == _as_seen(
        one_sets, one_before, one
    )


@pytest.mark.parametrize("lane", _lanes())
@settings(max_examples=50, deadline=None)
@given(plan=_worlds())
def test_a_scheme_refresh_leaves_what_card_of_reads(lane, plan):
    scheme = SummaryScheme("minwise", PARAMS)
    with pytest.MonkeyPatch.context() as mp:
        if lane == "scalar":
            mp.setattr(batch, "_numpy", lambda: None)
        one_sets, one_before = _world(plan)
        one = [ws.cached(*RECIPE) for ws in one_sets]
        many_sets, many_before = _world(plan)
        nodes = []
        for i, ws in enumerate(many_sets):
            node = OverlayNode(f"n{i}", 100)
            node.working_set = ws
            nodes.append(node)
        scheme.refresh(nodes)
        many = [scheme.card_of(node) for node in nodes]
    assert _as_seen(many_sets, many_before, many) == _as_seen(
        one_sets, one_before, one
    )


@pytest.mark.parametrize("lane", _lanes())
@settings(max_examples=100, deadline=None)
@given(initial=st.lists(_ids, max_size=12), adds=st.lists(_ids, max_size=30))
def test_a_card_absorbed_through_the_journal_is_the_build_of_the_union(
    lane, initial, adds
):
    """``absorb`` trusts ``added_since``: each new id once, counted
    before the fold, so ``set_size`` is the set's own length."""
    with pytest.MonkeyPatch.context() as mp:
        if lane == "scalar":
            mp.setattr(batch, "_numpy", lambda: None)
        ws = WorkingSet(initial)
        ws.cached(*RECIPE)
        for symbol_id in adds:
            ws.add(symbol_id)
            card = ws.cached(*RECIPE)
        built = build_summary("minwise", ws, **PARAMS)
        card = ws.cached(*RECIPE)
    assert card._row == built._row
    assert card.set_size == built.set_size == len(ws)


def test_kinds_without_a_batch_kernel_stay_lazy():
    """An epoch over ``bloom`` (or ``cpi``, ``art``, ...) builds no card
    it would not read: its refresh touches nothing."""
    assert summary_batch_recipe("bloom", {"bits_per_element": 8}) is None
    scheme = SummaryScheme("bloom", {"bits_per_element": 8})
    node = OverlayNode("n", 100, initial_ids=range(10))
    scheme.refresh([node])
    assert node.working_set._derived == {}
