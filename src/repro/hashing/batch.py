"""Vectorised hashing hot paths shared across summary adapters.

Every summary structure in the library reduces to one of two per-key
kernels: a linear permutation ``(a*x + b) mod u`` (min-wise sketches)
or the splitmix64 finaliser (:func:`repro.hashing.mix.mix64` — Bloom
indices, mod-k sampling, hash-set summaries, ART value hashes).
Building a summary evaluates one of them over the whole working set,
so this module provides numpy-batched versions that are *bit-identical*
to the scalar loops — adapters can switch freely between the two
without changing any wire value.

numpy is imported lazily so the scalar library stays importable in
minimal environments; every helper falls back to the scalar kernel
when numpy is unavailable or the inputs exceed 64-bit-safe ranges.
"""

from array import array
from collections import deque
from functools import lru_cache
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.hashing.mix import mix64

_MASK64 = (1 << 64) - 1

# splitmix64 constants, mirrored from repro.hashing.mix.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def _numpy():
    """The numpy module, or None when the environment lacks it."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised only without numpy
        return None
    return np


def _mix64_np(z, offset, np):
    """splitmix64 over a uint64 ndarray — the array-native mix kernel.

    ``offset`` is :func:`_mix_offset` of the seed: one uint64, or a
    column of them that mixes each row of ``z`` under its own seed.
    Array arithmetic on ``uint64`` wraps without a warning, so no
    ``errstate`` is needed (numpy scalars would warn; none occur here).
    """
    s1, mul1, s2, mul2, s3 = _mix_constants(np)
    z = z + offset
    z = (z ^ (z >> s1)) * mul1
    z = (z ^ (z >> s2)) * mul2
    return z ^ (z >> s3)


@lru_cache(maxsize=1)
def _mix_constants(np):
    """splitmix64's shifts and multipliers as numpy uint64 scalars."""
    return tuple(np.uint64(c) for c in (30, _SM_MUL1, 27, _SM_MUL2, 31))


def _mix_offset(seed: int) -> int:
    """What splitmix64 adds to a key before mixing it under ``seed``."""
    return ((seed + 1) * _SM_GAMMA) & _MASK64


def mix64_batch(keys: Sequence[int], seed: int = 0) -> List[int]:
    """Vectorised :func:`repro.hashing.mix.mix64` over many keys.

    Returns plain Python ints, identical to ``[mix64(x, seed) for x in
    keys]``.  A key outside ``[0, 2**64)`` (numpy refuses to convert
    it) sends the whole list through that scalar loop, whose
    Python-int arithmetic matches ``mix64`` exactly.
    """
    np = _numpy()
    key_list = list(keys)
    if np is None or not key_list:
        return [mix64(x, seed) for x in key_list]
    try:
        keys64 = np.asarray(key_list, dtype=np.uint64)
    except OverflowError:
        return [mix64(x, seed) for x in key_list]
    return _mix64_np(keys64, np.uint64(_mix_offset(seed)), np).tolist()


#: A minima-row entry no key has lowered yet (``None`` on the wire).
UNSET = -1

#: Keys per step of the minima kernel: whole key lists are gathered
#: until a step holds at least this many, then folded in as one
#: ``permutations x keys`` image matrix.  Small, so a batch of cards
#: keeps few rows (and the objects a caller builds around them) in
#: flight; a single list is never split below :data:`_MINIMA_STEP_CAP`.
_MINIMA_CHUNK = 256

#: The most keys one step takes: a longer list is folded in pieces,
#: which bounds the image matrix at ``len(family) * 2^16`` entries.
_MINIMA_STEP_CAP = 1 << 16

#: One ``(keys, floor)`` pair of :func:`permutation_minima_many`.
Fold = Tuple[Iterable[int], Optional[Sequence[int]]]


def _family_columns(family, np):
    """Cached ``(a, b)`` column vectors for a family over ``u <= 2^32``.

    Families are shared, long-lived objects (peers fix them off-line),
    so the coefficient columns are built once and memoised on the
    instance: uint32 when ``u`` is a power of two (the kernel then
    computes mod 2^32, see :func:`_lower_step`), uint64 otherwise.
    """
    cols = getattr(family, "_batch_columns", None)
    if cols is None:
        u, count = family.universe_size, len(family)
        dtype = np.uint32 if u & (u - 1) == 0 else np.uint64
        a = np.fromiter((p.a for p in family), dtype=dtype, count=count)
        b = np.fromiter((p.b for p in family), dtype=dtype, count=count)
        cols = (a[:, None], b[:, None])
        family._batch_columns = cols
    return cols


def permutation_minima(family, keys: Iterable[int]) -> array:
    """Per-permutation minima of ``keys`` under a permutation family.

    The one-list case of :func:`permutation_minima_many`, which builds
    and absorbs the ``minwise`` cards.  The result is one packed
    ``array('q')`` row, an entry per permutation; an empty key set
    yields a row of :data:`UNSET`.

    Raises:
        ValueError: if any key falls outside ``[0, u)``, or ``u``
            exceeds 2^63 (such minima do not fit an int64 entry).
    """
    return next(permutation_minima_many(family, [(keys, None)]))


def permutation_minima_fold(
    family, keys: Iterable[int], floor: Sequence[int]
) -> array:
    """Elementwise ``min(floor, permutation_minima(keys))`` in one pass.

    The incremental-absorb kernel, and the one-list case of
    :func:`permutation_minima_many`: ``floor`` is an existing minima row
    (as :func:`permutation_minima` returns; it is copied, never
    written) and ``keys`` the delta being folded in; min is
    associative, so the result equals a from-scratch build over the
    union.  :data:`UNSET` floor entries (an empty prior card) take the
    delta's value.
    """
    return next(permutation_minima_many(family, [(keys, floor)]))


def permutation_minima_many(family, folds: Iterable[Fold]) -> Iterator[array]:
    """Per-permutation minima of many key lists, in one kernel pass.

    ``folds`` holds ``(keys, floor)`` pairs: ``floor`` is a minima row
    to fold ``keys`` into (copied, never written), or ``None`` for a
    from-scratch row.  Yields one packed ``array('q')`` row per pair,
    in order, each equal to its own :func:`permutation_minima_fold` /
    :func:`permutation_minima` call — exact integers, so the numpy and
    scalar paths are bit-identical.

    On the numpy path every ``(a*x + b) mod u`` map is evaluated over
    whole lists gathered into steps of at least :data:`_MINIMA_CHUNK`
    keys: one matrix per step, reduced per list, so a thousand small
    lists cost one call rather than a thousand.  Pairs are read only as
    far as the current step needs and each row is yielded as soon as
    its step is done, so a caller can retire what a row supersedes
    before the next one is made.

    Raises:
        ValueError: if a key falls outside ``[0, u)``, ``u`` exceeds
            2^63 (such minima do not fit an int64 entry), or a floor
            is not one entry per permutation.
    """
    u = family.universe_size
    np = _numpy() if u <= 1 << 32 else None
    if np is not None:
        yield from _minima_np(np, family, folds)
        return
    # Wide universes overflow uint64 (and no-numpy environments):
    # Python ints per permutation, still a single pass per map.
    for keys, floor in folds:
        row, key_list = _row_of(floor, len(family)), list(keys)
        if key_list:
            if u > 1 << 63:
                raise ValueError(
                    "minima over a universe beyond 2^63 do not fit int64"
                )
            _check_keys(key_list, u)
            for j, p in enumerate(family):
                low = min((p.a * x + p.b) % u for x in key_list)
                if row[j] == UNSET or low < row[j]:
                    row[j] = low
        yield row


def _row_of(floor: Optional[Sequence[int]], count: int) -> array:
    """A fresh row to lower: ``floor`` copied, or all :data:`UNSET`."""
    if floor is None:
        return array("q", [UNSET]) * count
    if len(floor) != count:
        raise ValueError(
            f"floor vector has {len(floor)} entries, family expects {count}"
        )
    return array("q", floor)


def _check_keys(keys: List[int], u: int) -> None:
    for x in keys:
        if not 0 <= x < u:
            raise ValueError("key outside the family's universe")


def _minima_np(np, family, folds: Iterable[Fold]) -> Iterator[array]:
    """:func:`permutation_minima_many` over ``u <= 2^32``, step by step."""
    count = len(family)
    queue: Deque[array] = deque()  # rows in input order, not yet yielded
    # The step being gathered: its keys and, per list segment in it, the
    # row the segment lowers and the offset where the segment starts.
    keys: List[int] = []
    rows: List[array] = []
    starts: List[int] = []
    for fold_keys, floor in folds:
        row = _row_of(floor, count)
        queue.append(row)
        key_list = list(fold_keys)
        for at in range(0, len(key_list), _MINIMA_STEP_CAP):
            rows.append(row)
            starts.append(len(keys))
            keys.extend(key_list[at : at + _MINIMA_STEP_CAP])
            # A piece with more to come ends its step, so no step holds
            # a row twice.
            more = at + _MINIMA_STEP_CAP < len(key_list)
            if more or len(keys) >= _MINIMA_CHUNK:
                _lower_step(np, family, keys, rows, starts)
                keys, rows, starts = [], [], []
                # Every queued row is done but this one, if it has
                # another piece to come.
                while len(queue) > more:
                    yield queue.popleft()
        if not keys:
            while queue:
                yield queue.popleft()
    if keys:
        _lower_step(np, family, keys, rows, starts)
    while queue:
        yield queue.popleft()


def _lower_step(
    np, family, keys: List[int], rows: List[array], starts: List[int]
) -> None:
    """Lower each of ``rows`` in place to the minima of its segment of
    ``keys``: from its start up to the next one's (or the end)."""
    u = family.universe_size
    try:
        keys64 = np.asarray(keys, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        # Negative or >64-bit keys fail the uint64 conversion.
        _check_keys(keys, u)
        raise
    # Vectorised range check replaces a per-key Python loop.
    if int(keys64.max()) >= u:
        raise ValueError("key outside the family's universe")
    a, b = _family_columns(family, np)
    with np.errstate(over="ignore"):
        if a.dtype == np.uint32:
            # u = 2^k <= 2^32: the residue is the low k bits of a*x + b,
            # and uint32 arithmetic wraps mod 2^32, which 2^k divides.
            # Half-width products and a mask are exact (at k = 32 the
            # wrap alone is the reduction).
            images = a * keys64.astype(np.uint32)[None, :]
            images += b
            if u != 1 << 32:
                np.bitwise_and(images, a.dtype.type(u - 1), out=images)
        else:
            # (a*x + b) stays below 2^64 for a < u <= 2^32.
            images = a * keys64[None, :]
            images += b
            np.remainder(images, a.dtype.type(u), out=images)
    # Read as uint64, UNSET is 2^64 - 1: every image lowers it.
    if len(rows) == 1:
        row = np.frombuffer(rows[0], dtype=np.uint64)
        np.minimum(row, images.min(axis=1), out=row)
        return
    part = np.minimum.reduceat(images, starts, axis=1)
    # The rows, stacked, lowered together and copied back.
    stack = bytearray(b"".join(rows))
    lowered = np.frombuffer(stack, dtype=np.uint64).reshape(len(rows), -1)
    np.minimum(lowered, part.T, out=lowered)
    width = 8 * lowered.shape[1]
    view = memoryview(stack)
    for at, row in zip(range(0, len(stack), width), rows):
        memoryview(row).cast("B")[:] = view[at : at + width]


@lru_cache(maxsize=64)
def _bloom_columns(seed1: int, seed2: int, k: int):
    """``(offsets, steps)`` for :func:`bloom_index_matrix`: the two
    seeds' mix offsets as a ``(2, 1)`` column and ``0..k-1`` as a row,
    built once per hash family instead of once per probe."""
    np = _numpy()
    offsets = np.array(
        [[_mix_offset(seed1)], [_mix_offset(seed2)]], dtype=np.uint64
    )
    return offsets, np.arange(k, dtype=np.uint64)


def bloom_index_matrix(hashes, keys: Sequence[int]):
    """``(n, k)`` uint64 probe-index matrix, or None off the numpy path.

    Row ``i`` holds ``hashes.indices(keys[i])`` exactly.  Returns None
    when numpy is unavailable, the key list is empty, a key falls
    outside ``[0, 2**64)`` (numpy 2 refuses to convert it), or the
    ``(k+1)*m`` intermediate would overflow uint64 — callers then take
    the scalar loop.
    """
    np = _numpy()
    if not isinstance(keys, list):
        keys = list(keys)
    if np is None or not keys:
        return None
    m, k = hashes.m, hashes.k
    if m * (k + 1) >= 1 << 63:
        return None
    try:
        keys64 = np.asarray(keys, dtype=np.uint64)
    except OverflowError:
        return None
    offsets, steps = _bloom_columns(hashes._seed1, hashes._seed2, k)
    # Both seeds in one (2, n) pass.  The scalar loop computes
    # (h1 + i*h2) % m in unbounded Python ints; reducing h1 and h2 mod m
    # first keeps every intermediate below (k+1)*m — uint64-safe —
    # while yielding the identical residues.
    h1, h2 = _mix64_np(keys64, offsets, np)
    m64 = np.uint64(m)
    h1 %= m64
    h2 |= np.uint64(1)
    h2 %= m64
    rows = h2[:, None] * steps
    rows += h1[:, None]
    rows %= m64
    return rows


__all__ = [
    "UNSET",
    "mix64_batch",
    "permutation_minima",
    "permutation_minima_fold",
    "permutation_minima_many",
    "bloom_index_matrix",
]
