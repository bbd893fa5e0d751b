"""The min-wise minima kernel: numpy and the scalar loop agree exactly.

:func:`repro.hashing.batch._fold_into` reduces ``a*x + b`` with a mask
when the universe is a power of two and with ``%`` otherwise; the scalar
path (numpy patched away) is the oracle for both.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.hashing.batch import UNSET, permutation_minima, permutation_minima_fold
from repro.hashing.permutations import PermutationFamily

pytestmark = pytest.mark.skipif(
    batch._numpy() is None, reason="without numpy there is no fork to compare"
)

#: Three powers of two (the mask) and a prime (the modulo).
UNIVERSES = [2**8, 2**20, 2**32, 10**6 + 3]
ENTRIES = 16


@lru_cache(maxsize=None)
def _family(universe):
    return PermutationFamily(ENTRIES, universe, seed=universe % 97)


def _scalar(kernel, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_numpy", lambda: None)
        return kernel(*args)


@st.composite
def _case(draw):
    universe = draw(st.sampled_from(UNIVERSES))
    key = st.integers(0, universe - 1)
    keys = draw(st.lists(key, max_size=200))
    floor = draw(
        st.lists(st.one_of(st.just(UNSET), key), min_size=ENTRIES, max_size=ENTRIES)
    )
    return universe, keys, floor


@settings(max_examples=200, deadline=None)
@given(_case())
def test_numpy_minima_equal_the_scalar_loop(case):
    universe, keys, floor = case
    family = _family(universe)
    assert permutation_minima(family, keys) == _scalar(
        permutation_minima, family, keys
    )
    folded = permutation_minima_fold(family, keys, floor)
    assert folded == _scalar(permutation_minima_fold, family, keys, floor)
    if not keys:
        assert list(folded) == floor  # UNSET floors stay unset


@pytest.mark.parametrize("universe", UNIVERSES)
def test_the_extremes_of_the_universe(universe):
    family = _family(universe)
    keys = [0, 1, universe - 2, universe - 1]
    row = permutation_minima(family, keys)
    assert row == _scalar(permutation_minima, family, keys)
    assert list(row) == [p.min_over(keys) for p in family]
