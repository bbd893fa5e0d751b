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
from typing import Iterable, List, Sequence

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


def _mix64_np(z, seed: int, np):
    """splitmix64 over a uint64 ndarray — the array-native mix kernel."""
    with np.errstate(over="ignore"):
        z = z + np.uint64(((seed + 1) * _SM_GAMMA) & _MASK64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MUL2)
        return z ^ (z >> np.uint64(31))


def mix64_batch(keys: Sequence[int], seed: int = 0) -> List[int]:
    """Vectorised :func:`repro.hashing.mix.mix64` over many keys.

    Returns plain Python ints, identical to ``[mix64(x, seed) for x in
    keys]``.
    """
    np = _numpy()
    key_list = list(keys)
    if np is None or not key_list:
        return [mix64(x, seed) for x in key_list]
    if any(x < 0 or x > _MASK64 for x in key_list):
        # mix64 masks high bits implicitly via + seed*gamma & mask; keys
        # beyond 64 bits need Python-int arithmetic to match exactly.
        return [mix64(x, seed) for x in key_list]
    z = _mix64_np(np.asarray(key_list, dtype=np.uint64), seed, np)
    return z.tolist()


#: A minima-row entry no key has lowered yet (``None`` on the wire).
UNSET = -1

#: Key-chunk width for the permutation-minima matrix: bounds the
#: temporary at ``len(family) * 2^16 * 8`` bytes (64 MB at 128 maps).
_MINIMA_CHUNK = 1 << 16


def _family_columns(family, np):
    """Cached ``(a, b)`` column vectors for a family over ``u <= 2^32``.

    Families are shared, long-lived objects (peers fix them off-line),
    so the coefficient columns are built once and memoised on the
    instance: uint32 when ``u`` is a power of two (the kernel then
    computes mod 2^32, see :func:`_fold_into`), uint64 otherwise.
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

    The batched core of :meth:`repro.sketches.MinwiseSketch.
    build_vectorized`, shared with the reconcile adapters: evaluates
    every ``(a*x + b) mod u`` map over all keys at once — one
    permutations-by-keys matrix per chunk rather than a per-map Python
    loop.  Identical to the scalar loop.  The result is one packed
    ``array('q')`` row, an entry per permutation; an empty key set
    yields a row of :data:`UNSET`.

    Raises:
        ValueError: if any key falls outside ``[0, u)``, or ``u``
            exceeds 2^63 (such minima do not fit an int64 entry).
    """
    row = array("q", [UNSET]) * len(family)
    return _fold_into(row, family, list(keys))


def permutation_minima_fold(
    family, keys: Iterable[int], floor: Sequence[int]
) -> array:
    """Elementwise ``min(floor, permutation_minima(keys))`` in one pass.

    The incremental-absorb kernel: ``floor`` is an existing minima row
    (as :func:`permutation_minima` returns; it is copied, never
    written) and ``keys`` the delta being folded in; min is
    associative, so the result equals a from-scratch build over the
    union — exact integers, so the numpy and scalar paths are
    bit-identical.  :data:`UNSET` floor entries (an empty prior card)
    take the delta's value.
    """
    if len(floor) != len(family):
        raise ValueError(
            f"floor vector has {len(floor)} entries, family expects "
            f"{len(family)}"
        )
    return _fold_into(array("q", floor), family, list(keys))


def _fold_into(row: array, family, key_list: List[int]) -> array:
    """Lower ``row`` in place to the minima of ``key_list``; returns it."""
    if not key_list:
        return row
    u = family.universe_size
    if u > 1 << 63:
        raise ValueError("minima over a universe beyond 2^63 do not fit int64")
    np = _numpy()
    if np is not None and u <= 1 << 32:
        try:
            # Negative or >64-bit keys fail the uint64 conversion and
            # drop to the scalar path, whose explicit check rejects them.
            keys64 = np.asarray(key_list, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            keys64 = None
        if keys64 is not None:
            # Vectorised range check replaces a per-key Python loop.
            if int(keys64.max()) >= u:
                raise ValueError("key outside the family's universe")
            a, b = _family_columns(family, np)
            if a.dtype == np.uint32:
                # u = 2^k <= 2^32: the residue is the low k bits of
                # a*x + b, and uint32 arithmetic wraps mod 2^32, which
                # 2^k divides.  Half-width products and a mask are exact.
                keys, reduce, by = keys64.astype(np.uint32), np.bitwise_and, u - 1
            else:
                # (a*x + b) stays below 2^64 for a < u <= 2^32.
                keys, reduce, by = keys64, np.remainder, u
            by = a.dtype.type(by)
            # Read as uint64, UNSET is 2^64 - 1: every image lowers it.
            # Chunking the key axis caps the temporary matrix; the
            # chunkwise elementwise minimum equals the single-pass one.
            merged = np.frombuffer(row, dtype=np.uint64)
            with np.errstate(over="ignore"):
                for start in range(0, len(keys), _MINIMA_CHUNK):
                    images = a * keys[None, start : start + _MINIMA_CHUNK]
                    images += b
                    reduce(images, by, out=images)
                    np.minimum(merged, images.min(axis=1), out=merged)
            return row
    # Wide universes overflow uint64 (and no-numpy environments):
    # Python ints per permutation, still a single pass per map.
    for x in key_list:
        if not 0 <= x < u:
            raise ValueError("key outside the family's universe")
    for j, p in enumerate(family):
        low = min((p.a * x + p.b) % u for x in key_list)
        if row[j] == UNSET or low < row[j]:
            row[j] = low
    return row


def bloom_index_matrix(hashes, keys: Sequence[int]):
    """``(n, k)`` uint64 probe-index matrix, or None off the numpy path.

    The array-native core of :func:`bloom_index_rows`: row ``i`` holds
    ``hashes.indices(keys[i])`` exactly.  Returns None when numpy is
    unavailable, the key list is empty, a key exceeds 64 bits, or the
    ``(k+1)*m`` intermediate would overflow uint64 — callers then take
    the scalar loop.
    """
    key_list = list(keys)
    np = _numpy()
    if np is None or not key_list:
        return None
    if any(x < 0 or x > _MASK64 for x in key_list):
        return None
    m, k = hashes.m, hashes.k
    if m * (k + 1) >= 1 << 63:
        return None
    # The scalar loop computes (h1 + i*h2) % m in unbounded Python ints;
    # reducing h1 and h2 mod m first keeps every intermediate below
    # (k+1)*m — uint64-safe — while yielding the identical residues.
    keys64 = np.asarray(key_list, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h1 = _mix64_np(keys64, hashes._seed1, np) % np.uint64(m)
        h2 = (_mix64_np(keys64, hashes._seed2, np) | np.uint64(1)) % np.uint64(m)
        steps = np.arange(k, dtype=np.uint64)
        return (h1[:, None] + steps[None, :] * h2[:, None]) % np.uint64(m)


def bloom_index_rows(hashes, keys: Sequence[int]) -> List[List[int]]:
    """Vectorised :meth:`repro.hashing.families.BloomHashes.indices` rows.

    One ``[g_0(x), ..., g_{k-1}(x)]`` row per key, identical to the
    scalar double-hashing loop.
    """
    key_list = list(keys)
    rows = bloom_index_matrix(hashes, key_list)
    if rows is None:
        return [hashes.indices(x) for x in key_list]
    return rows.tolist()


__all__ = [
    "UNSET",
    "mix64_batch",
    "permutation_minima",
    "permutation_minima_fold",
    "bloom_index_matrix",
    "bloom_index_rows",
]
