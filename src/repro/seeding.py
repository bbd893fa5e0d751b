"""Deterministic RNG derivation from one master seed.

Every random choice in a spec-driven experiment descends from the
spec's single ``seed`` through :func:`derive_rng`, so two runs of the
same :class:`~repro.api.ExperimentSpec` are bit-identical — across
processes and platforms (the derivation hashes with SHA-256, never
Python's randomised ``hash()``).

Nothing draws from a stream its caller did not hand it: every
component that draws (sender strategies, the recoder, demand splitting,
join planning, rewiring, protocol sessions, the overlay and flow
simulators) takes a required ``rng``, and every stream the library
makes descends from the run's seed (:func:`derive_rng` names one by a
path).  There is no process-global fallback stream.

Every uniform draw in ``src/`` goes through :func:`sample`,
:func:`shuffle`, :func:`randbelow` and :func:`choice`.  Each is
CPython's own ``random.Random`` algorithm (identical in 3.11, 3.12 and
3.13) with ``_randbelow`` inlined as the ``getrandbits`` loop it is, so
a call returns what the method returns and leaves the generator in the
same state, without a Python frame per pick.
``tests/seeding/test_draws.py`` holds them to the methods.
"""

import hashlib
import random
from collections.abc import Sequence
from math import ceil, log


def derive_seed(master: int, *path: object) -> int:
    """A stable 64-bit seed for the stream named by ``path``.

    ``path`` components may be any objects with a stable ``repr``
    (strings, ints, floats, tuples thereof).  Distinct paths give
    independent streams; the same ``(master, path)`` always gives the
    same seed.
    """
    digest = hashlib.sha256()
    digest.update(str(int(master)).encode("utf-8"))
    for part in path:
        digest.update(b"/")
        digest.update(repr(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def derive_rng(master: int, *path: object) -> random.Random:
    """A ``random.Random`` seeded by :func:`derive_seed`."""
    return random.Random(derive_seed(master, *path))


#: ``Random._randbelow`` when the class draws through ``getrandbits`` —
#: every class but one that overrides ``random()`` alone, which CPython
#: gives a float-based ``_randbelow`` instead.  The helpers inline the
#: former and hand any other class to the stdlib method.
_WITH_GETRANDBITS = random.Random._randbelow_with_getrandbits

#: Sequences by type, so :func:`sample` need not ask the ABC.
_SEQUENCES = (list, range, tuple)


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``: a uniform int in ``[0, n)``.

    ``rng.randrange(start, stop)`` is ``start + randbelow(rng, stop -
    start)``.
    """
    if n <= 0:
        raise ValueError("empty range for randrange()")
    if type(rng)._randbelow is not _WITH_GETRANDBITS:
        return rng._randbelow(n)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def choice(rng: random.Random, seq: Sequence):
    """``rng.choice(seq)``: a uniform element of a non-empty sequence."""
    if not len(seq):
        raise IndexError("Cannot choose from an empty sequence")
    return seq[randbelow(rng, len(seq))]


def shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)``: shuffle ``x`` in place."""
    if type(rng)._randbelow is not _WITH_GETRANDBITS:
        return random.Random.shuffle(rng, x)
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        m = i + 1
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def sample(rng: random.Random, population: Sequence, k: int) -> list:
    """``rng.sample(population, k)``: ``k`` distinct elements, in draw order.

    Both of CPython's branches: a pool of swaps when an ``n``-list is
    smaller than a ``k``-set, rejection against a set otherwise.
    """
    # The common types skip the ABC check, which costs more than a pick.
    if type(population) not in _SEQUENCES and not isinstance(population, Sequence):
        raise TypeError(
            "Population must be a sequence.  For dicts or sets, use sorted(d)."
        )
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    if type(rng)._randbelow is not _WITH_GETRANDBITS:
        return random.Random.sample(rng, population, k)
    getrandbits = rng.getrandbits
    result = [None] * k
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[m - 1]  # move the non-selected item into the vacancy
    else:
        bits = n.bit_length()
        selected = set()
        selected_add = selected.add
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected_add(j)
            result[i] = population[j]
    return result


__all__ = [
    "derive_seed",
    "derive_rng",
    "randbelow",
    "choice",
    "shuffle",
    "sample",
]
