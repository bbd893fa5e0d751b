"""The many-list minima kernel equals its one-list calls, row for row.

:func:`repro.hashing.batch.permutation_minima_many` folds many key
lists, each with an optional floor row, in steps of at least
``_MINIMA_CHUNK`` keys and splits a list longer than
``_MINIMA_STEP_CAP``.  Each yielded row must equal the list's own
:func:`permutation_minima` (no floor) or :func:`permutation_minima_fold`
call, on every path: the uint32 mask (a power-of-two universe), the
uint32 wrap (``u = 2^32``), the uint64 remainder (any other universe
up to 2^32), and the scalar loop (numpy patched away, or a universe
beyond 2^32).  Runs with and without numpy installed.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.hashing.batch import (
    UNSET,
    permutation_minima,
    permutation_minima_fold,
    permutation_minima_many,
)
from repro.hashing.permutations import PermutationFamily

#: The mask, the bare wrap, the remainder, and a scalar-only universe.
UNIVERSES = [2**12, 2**32, 10**6 + 3, 2**40 + 15]
ENTRIES = 8


@lru_cache(maxsize=None)
def _family(universe):
    return PermutationFamily(ENTRIES, universe, seed=universe % 89)


@st.composite
def _batches(draw):
    universe = draw(st.sampled_from(UNIVERSES))
    key = st.integers(0, universe - 1)
    floor = st.one_of(
        st.none(),
        st.lists(
            st.one_of(st.just(UNSET), key), min_size=ENTRIES, max_size=ENTRIES
        ),
    )
    # Mostly short lists (several share a step), some empty, and now
    # and then one that fills a step on its own or is split.
    keys = st.one_of(
        st.lists(key, max_size=6),
        st.lists(key, min_size=7, max_size=40),
    )
    folds = draw(st.lists(st.tuples(keys, floor), max_size=12))
    return universe, folds


def _one_by_one(family, folds):
    return [
        permutation_minima(family, keys)
        if floor is None
        else permutation_minima_fold(family, keys, floor)
        for keys, floor in folds
    ]


#: Step sizes: tiny ones, so short lists straddle step boundaries and
#: long ones are split, and the shipped ones.
STEPS = {"small-steps": (8, 5), "as-shipped": (256, 1 << 16)}


def _lanes():
    return ["numpy", "scalar"] if batch._numpy() is not None else ["scalar"]


def _patch(mp, lane, steps="as-shipped"):
    if lane == "scalar":
        mp.setattr(batch, "_numpy", lambda: None)
    chunk, cap = STEPS[steps]
    mp.setattr(batch, "_MINIMA_CHUNK", chunk)
    mp.setattr(batch, "_MINIMA_STEP_CAP", cap)


@pytest.mark.parametrize("steps", sorted(STEPS))
@pytest.mark.parametrize("lane", _lanes())
@settings(max_examples=150, deadline=None)
@given(case=_batches())
def test_each_row_equals_its_one_list_call(lane, steps, case):
    universe, folds = case
    family = _family(universe)
    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, lane, steps)
        rows = list(permutation_minima_many(family, folds))
        assert rows == _one_by_one(family, folds)
    for (keys, floor), row in zip(folds, rows):
        if not keys:
            # Nothing folded in: the floor, or a row of UNSET.
            assert list(row) == (floor or [UNSET] * ENTRIES)


@pytest.mark.skipif(batch._numpy() is None, reason="no numpy, no fork to compare")
@pytest.mark.parametrize("steps", sorted(STEPS))
@settings(max_examples=50, deadline=None)
@given(case=_batches())
def test_numpy_rows_equal_the_scalar_loop(steps, case):
    universe, folds = case
    family = _family(universe)
    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, "numpy", steps)
        rows = list(permutation_minima_many(family, folds))
    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, "scalar", steps)
        assert rows == list(permutation_minima_many(family, folds))


@pytest.mark.parametrize("lane", _lanes())
def test_a_list_longer_than_a_step_cap(lane, monkeypatch):
    _patch(monkeypatch, lane)
    monkeypatch.setattr(batch, "_MINIMA_STEP_CAP", 64)
    family = _family(2**32)
    keys = list(range(5, 5 + 1000, 3))
    short = [7, 11]
    floor = permutation_minima(family, [1, 2])
    folds = [(short, None), (keys, floor), (short, None)]
    rows = list(permutation_minima_many(family, folds))
    assert rows == [
        permutation_minima(family, short),
        permutation_minima_fold(family, keys, floor),
        permutation_minima(family, short),
    ]
    assert list(rows[1]) == [
        min(m, low) for m, low in zip(floor, (p.min_over(keys) for p in family))
    ]


@pytest.mark.parametrize("lane", _lanes())
def test_pairs_are_read_as_the_steps_need_them(lane, monkeypatch):
    """A row is out before the kernel reads far past its step."""
    _patch(monkeypatch, lane)
    monkeypatch.setattr(batch, "_MINIMA_CHUNK", 4)
    family = _family(2**12)
    read = []

    def folds():
        for i in range(10):
            read.append(i)
            yield [i, i + 1], None

    rows = permutation_minima_many(family, folds())
    first = next(rows)
    assert first == permutation_minima(family, [0, 1])
    assert len(read) <= 2  # the first step: two lists of two keys
    assert len(list(rows)) == 9


@pytest.mark.parametrize("universe", UNIVERSES)
@pytest.mark.parametrize("lane", _lanes())
def test_refusals_match_the_one_list_calls(lane, universe, monkeypatch):
    _patch(monkeypatch, lane)
    family = _family(universe)
    with pytest.raises(ValueError, match="outside the family's universe"):
        list(permutation_minima_many(family, [([1], None), ([universe], None)]))
    with pytest.raises(ValueError, match="outside the family's universe"):
        list(permutation_minima_many(family, [([-1], None)]))
    with pytest.raises(ValueError, match="floor vector has 3 entries"):
        list(permutation_minima_many(family, [([1], [UNSET] * 3)]))
