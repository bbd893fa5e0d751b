"""repro.seeding's draws against ``random.Random``'s, stdlib only.

The seeded-loop form of ``test_draws.py``: every helper runs on one
generator and its ``random.Random`` method on a twin in the same state,
and the two must return the same value (or raise the same error type)
and leave the same ``getstate()``.  It needs no pytest, so it checks an
interpreter that has none::

    python3.13 tests/seeding/draw_lockstep.py

It exits non-zero on the first mismatch.  ``test_draws.py`` runs
:func:`run` in the tier-1 suite as well.
"""

import random
import sys
from math import ceil, log
from pathlib import Path


class CountingBits(random.Random):
    """Overrides ``getrandbits``: CPython's ``_randbelow`` calls it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class FloatOnly(random.Random):
    """Overrides ``random()`` alone: CPython's ``_randbelow`` then draws
    floats, not bits."""

    def random(self):
        return super().random()


#: The generator classes every case runs on.
CLASSES = (random.Random, CountingBits, FloatOnly)


def setsize(k):
    """CPython ``sample``'s threshold: pool path when ``n <= setsize(k)``."""
    size = 21
    if k > 5:
        size += 4 ** ceil(log(k * 3, 4))
    return size


def lockstep(cls, seed, ours, theirs):
    """Run ``ours(rng)`` and ``theirs(twin)`` on same-state generators and
    assert they agree on the value or error type, and on the state —
    ``vars`` included, so a ``CountingBits`` pair made as many
    ``getrandbits`` calls."""
    rng, twin = cls(seed), cls(seed)
    outcomes = []
    for gen, call in ((rng, ours), (twin, theirs)):
        try:
            outcomes.append(("value", call(gen)))
        except (ValueError, TypeError, IndexError) as exc:
            outcomes.append(("error", type(exc)))
    assert outcomes[0] == outcomes[1], (cls.__name__, seed, outcomes)
    assert rng.getstate() == twin.getstate(), (cls.__name__, seed)
    assert vars(rng) == vars(twin), (cls.__name__, seed)
    return outcomes[0]


def shuffled(draw, n):
    """``draw(x)`` shuffles in place; return the shuffled list."""

    def call(rng):
        x = list(range(n))
        draw(rng, x)
        return x

    return call


def run(seeds=range(200)):
    """Every helper against its method, over ``seeds`` and every class;
    return the number of cases checked."""
    from repro import seeding

    cases = 0
    for seed in seeds:
        shape = random.Random(seed)
        n = shape.randrange(3001)
        # Both sample branches at their boundary, k = 0 / 1 / 5 / 6 / n,
        # and a drawn k.
        k = shape.randrange(n + 1)
        shapes = [(n, k), (n, 0), (n, min(n, 1)), (n, n), (21, 5), (22, 5),
                  (setsize(6), 6), (setsize(6) + 1, 6), (n, min(n, 5)),
                  (n, min(n, 6))]
        width = shape.randrange(1, 1 << shape.randrange(1, 71))
        start = shape.randrange(-(1 << 40), 1 << 40)
        length = shape.randrange(501)
        for cls in CLASSES:
            if cls is FloatOnly:
                # A float-based _randbelow warns above 2**53.
                width = min(width, 1 << 50)
            for n_, k_ in shapes:
                for pop in (list(range(100, 100 + n_)), range(n_)):
                    lockstep(cls, seed, lambda r: seeding.sample(r, pop, k_),
                             lambda r: r.sample(pop, k_))
                    cases += 1
            lockstep(cls, seed, shuffled(seeding.shuffle, length),
                     shuffled(random.Random.shuffle, length))
            lockstep(cls, seed, lambda r: seeding.randbelow(r, width),
                     lambda r: r.randrange(width))
            lockstep(cls, seed, lambda r: start + seeding.randbelow(r, width),
                     lambda r: r.randrange(start, start + width))
            seq = list(range(length + 1))
            lockstep(cls, seed, lambda r: seeding.choice(r, seq),
                     lambda r: r.choice(seq))
            # The same refusals.
            for bad in (n + 1, -1):
                lockstep(cls, seed, lambda r: seeding.sample(r, range(n), bad),
                         lambda r: r.sample(range(n), bad))
            lockstep(cls, seed, lambda r: seeding.sample(r, {1, 2, 3}, 2),
                     lambda r: r.sample({1, 2, 3}, 2))
            lockstep(cls, seed, lambda r: seeding.choice(r, []),
                     lambda r: r.choice([]))
            lockstep(cls, seed, lambda r: seeding.randbelow(r, 0),
                     lambda r: r.randrange(0))
            cases += 9
    return cases


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    cases = run()
    print(f"{cases} draw cases match random.Random on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
