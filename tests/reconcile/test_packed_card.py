"""The packed min-wise card against the list-based oracle.

A :class:`MinwiseSummary` is one ``array('q')`` row that the batch
kernels write and numpy views in place.  The oracle is the §4
definition — one scalar ``min_over`` per permutation over the folded
ids, a plain list with ``None`` for unset, merged and compared entry by
entry — which shares no code with the row: every
operation of the card must agree with it, with numpy and with
``batch._numpy`` patched to ``None``.  The last test pins the bytes of
every small spec's result as recorded at the parent commit, so payloads
and metrics are shown unchanged by the representation.
"""

import hashlib
import json
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.api import registry, run
from repro.hashing.permutations import PermutationFamily
from repro.reconcile import SummaryError, build_summary, summary_from_payload
from repro.reconcile.adapters import MinwiseSummary

ENTRIES = 8
FAMILIES = {u: PermutationFamily(ENTRIES, u, seed=0) for u in (1 << 32, 1 << 63)}

# A small pool (cards overlap and tie), ids around each universe's edge
# (the fold), and anything up to 2**70.
_ids = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=(1 << 32) - 3, max_value=(1 << 32) + 40),
    st.integers(min_value=(1 << 63) - 3, max_value=(1 << 63) + 40),
    st.integers(min_value=0, max_value=1 << 70),
)
_sets = st.sets(_ids, max_size=24)
_universes = st.sampled_from(sorted(FAMILIES))


@pytest.fixture(params=["numpy", "numpy-blocked"], autouse=True, scope="module")
def numpy_lane(request):
    """Every test below runs twice: as installed, and with the batch
    kernels' numpy taken away (module-scoped, so it composes with
    ``@given``)."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "numpy-blocked":
            patch.setattr(batch, "_numpy", lambda: None)
        yield


def _card(ids, universe):
    return build_summary("minwise", ids, entries=ENTRIES, universe=universe)


def _oracle(ids, universe):
    folded = sorted({i % universe for i in ids})
    return [p.min_over(folded) if folded else None for p in FAMILIES[universe]]


def _oracle_merge(a, b):
    return [y if x is None else (x if y is None else min(x, y)) for x, y in zip(a, b)]


def _oracle_resemblance(a, b):
    return sum(x is not None and x == y for x, y in zip(a, b)) / len(a)


def _wire(card):
    return summary_from_payload(json.loads(json.dumps(card.to_payload())))


@settings(deadline=None)
@given(ids=_sets, universe=_universes)
def test_build_is_the_oracles_vector(ids, universe):
    card = _card(ids, universe)
    assert type(card._row) is array and card._row.typecode == "q"
    assert card.minima == _oracle(ids, universe)
    # Counted before the fold: the distinct ids given.
    assert card.set_size == len(ids)


@settings(deadline=None)
@given(first=_sets, more=_sets, universe=_universes)
def test_absorb_is_the_oracle_of_the_union(first, more, universe):
    more = more - first  # absorb takes ids not yet summarised
    before = _card(first, universe)
    kept = list(before._row)
    after = before.absorb(more)
    assert after.minima == _oracle(first | more, universe)
    assert after.to_payload() == _card(first | more, universe).to_payload()
    assert list(before._row) == kept  # the absorbed card is never written
    # Into an empty card: every floor entry is unset.
    grown = _card((), universe).absorb(more)
    assert grown.minima == _oracle(more, universe)


@settings(deadline=None)
@given(a=_sets, b=_sets, universe=_universes)
def test_merge_is_the_oracles_merge(a, b, universe):
    merged = _card(a, universe).merge(_card(b, universe))
    assert merged.minima == _oracle_merge(_oracle(a, universe), _oracle(b, universe))
    assert merged.minima == _oracle(a | b, universe)
    # Wire cards merge the same rows.
    assert _wire(_card(a, universe)).merge(_wire(_card(b, universe))).minima == (
        merged.minima
    )


@settings(deadline=None)
@given(sets=st.lists(_sets, min_size=2, max_size=5), universe=_universes)
def test_estimates_are_the_oracles_floats(sets, universe):
    cards = [_card(ids, universe) for ids in sets]
    oracles = [_oracle(ids, universe) for ids in sets]
    for mine, oracle in zip(cards, oracles):
        expected = [_oracle_resemblance(oracle, o).hex() for o in oracles]
        assert [mine.estimate_resemblance(c).hex() for c in cards] == expected
        assert [f.hex() for f in mine.estimate_resemblance_many(cards)] == expected
        assert [f.hex() for f in _wire(mine).estimate_resemblance_many(cards)] == (
            expected
        )


@settings(deadline=None)
@given(ids=_sets, universe=_universes)
def test_payload_round_trip(ids, universe):
    card = _card(ids, universe)
    payload = card.to_payload()
    assert payload["minima"] == _oracle(ids, universe)
    back = _wire(card)
    assert back.to_payload() == payload
    assert back._row == card._row
    assert back.wire_bytes() == card.wire_bytes() == 4 + 8 * ENTRIES


def test_a_universe_whose_minima_outgrow_eight_bytes_is_refused():
    widest = _card(range(5), 1 << 63)
    with pytest.raises(SummaryError, match="2\\*\\*63"):
        MinwiseSummary.build(range(5), entries=ENTRIES, universe=(1 << 63) + 1)
    with pytest.raises(SummaryError, match="2\\*\\*63"):
        _card(range(5), 1 << 64)
    payload = widest.to_payload()
    payload["universe"] = (1 << 63) + 1
    with pytest.raises(SummaryError, match="2\\*\\*63"):
        summary_from_payload(payload)


#: sha256 over every small spec's ``to_json(include_series=True)``,
#: recorded at the parent commit (cards were lists there), identical
#: with numpy blocked.
SMALL_SPECS_SHA256 = "c242ce4a47cad21d53d4e585ec5d32d74238fbefa6138c8005ddf208c9a27292"


def test_small_spec_results_are_the_parents_bytes():
    digest = hashlib.sha256()
    for name, spec in sorted(registry.small_specs().items()):
        digest.update(name.encode())
        digest.update(run(spec).to_json(include_series=True).encode())
    assert digest.hexdigest() == SMALL_SPECS_SHA256
