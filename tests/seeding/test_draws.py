"""repro.seeding's draws are CPython's, draw for draw.

Every uniform draw under ``src/`` goes through ``repro.seeding``'s
``sample`` / ``shuffle`` / ``randbelow`` / ``choice``, so every seeded
pin rests on them replaying ``random.Random``.  Each case runs a helper
on one generator and its method on a twin in the same state: the values
(or error types) and the ``getstate()`` afterwards must be equal.  A
CPython release that changes ``sample``, ``shuffle`` or ``_randbelow``
fails here, before any pin drifts.  ``draw_lockstep.py`` is the same
check as a stdlib-only seeded loop, for interpreters without pytest.
"""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from draw_lockstep import (
    CLASSES,
    CountingBits,
    FloatOnly,
    lockstep,
    run,
    setsize,
    shuffled,
)
from repro import seeding

seeds = st.integers(0, 2**64)
classes = st.sampled_from(CLASSES)


@st.composite
def sample_shapes(draw):
    """``(n, k)``: n in [0, 3000], k one of 0 / 1 / 5 / 6 / n or drawn."""
    n = draw(st.integers(0, 3000))
    k = draw(st.sampled_from([0, 1, 5, 6, n]) | st.integers(0, n))
    return n, min(k, n)


@given(seeds, classes, sample_shapes(), st.booleans())
@example(0, random.Random, (21, 5), False)  # the pool path's last n at k <= 5
@example(0, random.Random, (22, 5), True)  # the set path's first
@example(0, random.Random, (setsize(6), 6), False)  # k > 5 grows the threshold
@example(0, random.Random, (setsize(6) + 1, 6), True)
@example(1, CountingBits, (3000, 3000), False)
@example(2, FloatOnly, (3000, 60), True)
def test_sample_replays_random_sample(seed, cls, shape, as_range):
    n, k = shape
    population = range(n) if as_range else [f"s{i}" for i in range(n)]
    kind, value = lockstep(
        cls, seed,
        lambda r: seeding.sample(r, population, k),
        lambda r: r.sample(population, k),
    )
    assert kind == "value" and len(value) == k


@given(seeds, classes, st.integers(0, 500))
def test_shuffle_replays_random_shuffle(seed, cls, length):
    lockstep(
        cls, seed,
        shuffled(seeding.shuffle, length),
        shuffled(random.Random.shuffle, length),
    )


@given(seeds, st.sampled_from([random.Random, CountingBits]), st.integers(1, 2**70))
@example(0, random.Random, 1)
@example(0, random.Random, 2**64)
def test_randbelow_replays_randrange(seed, cls, n):
    lockstep(cls, seed, lambda r: seeding.randbelow(r, n), lambda r: r.randrange(n))


@given(seeds, classes, st.integers(-(2**40), 2**40), st.integers(1, 2**50))
def test_randbelow_from_a_start_replays_two_argument_randrange(
    seed, cls, start, width
):
    lockstep(
        cls, seed,
        lambda r: start + seeding.randbelow(r, width),
        lambda r: r.randrange(start, start + width),
    )


@given(seeds, classes, st.lists(st.integers(), min_size=1, max_size=300))
def test_choice_replays_random_choice(seed, cls, seq):
    lockstep(cls, seed, lambda r: seeding.choice(r, seq), lambda r: r.choice(seq))


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize(
    "ours, theirs, error",
    [
        (lambda r: seeding.sample(r, range(3), 4), lambda r: r.sample(range(3), 4),
         ValueError),
        (lambda r: seeding.sample(r, [1, 2], -1), lambda r: r.sample([1, 2], -1),
         ValueError),
        (lambda r: seeding.sample(r, {1, 2, 3}, 2), lambda r: r.sample({1, 2, 3}, 2),
         TypeError),
        (lambda r: seeding.choice(r, []), lambda r: r.choice([]), IndexError),
        (lambda r: seeding.randbelow(r, 0), lambda r: r.randrange(0), ValueError),
    ],
    ids=["k-above-n", "k-negative", "set-population", "empty-choice", "empty-range"],
)
def test_the_same_refusals(cls, ours, theirs, error):
    assert lockstep(cls, 3, ours, theirs) == ("error", error)


def test_the_stdlib_only_loop_passes():
    assert run(range(20)) == 20 * 3 * (10 * 2 + 9)
