"""Standard Bloom filter (Bloom 1970), as used in paper Section 5.2.

The paper's working configuration: "using just four bits per element and
three hash functions yields a false positive probability of 14.7%; using
eight bits per element and five hash functions yields a false positive
probability of 2.2%".  Both numbers fall out of
:func:`false_positive_rate` and are pinned by tests.
"""

import math
from typing import Iterable, Iterator, List, Optional

from repro.hashing import batch as _batch
from repro.hashing.families import BloomHashes


def false_positive_rate(m_bits: int, n_elements: int, k_hashes: int) -> float:
    """The paper's FP formula ``f = (1 - e^{-kn/m})^k``."""
    if m_bits <= 0:
        raise ValueError("filter must have at least one bit")
    if n_elements < 0 or k_hashes <= 0:
        raise ValueError("need n >= 0 and k >= 1")
    if n_elements == 0:
        return 0.0
    return (1.0 - math.exp(-k_hashes * n_elements / m_bits)) ** k_hashes


def optimal_hash_count(m_bits: int, n_elements: int) -> int:
    """``k* = (m/n) ln 2`` rounded to the nearest positive integer."""
    if n_elements <= 0:
        raise ValueError("need at least one element to size hashes for")
    return max(1, round(m_bits / n_elements * math.log(2)))


class BloomFilter:
    """Bit-array membership summary with ``k`` double-hashed functions.

    Attributes:
        m: number of bits.
        k: number of hash functions.
        count: number of insertions performed (with multiplicity).
    """

    def __init__(self, m_bits: int, k_hashes: int, seed: int = 0):
        if m_bits <= 0:
            raise ValueError("filter must have at least one bit")
        if k_hashes <= 0:
            raise ValueError("need at least one hash function")
        self.m = m_bits
        self.k = k_hashes
        self.seed = seed
        self._hashes = BloomHashes(k_hashes, m_bits, seed)
        self._bits = bytearray((m_bits + 7) // 8)
        self.count = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def for_elements(
        cls,
        elements: Iterable[int],
        bits_per_element: int = 8,
        k_hashes: Optional[int] = None,
        seed: int = 0,
    ) -> "BloomFilter":
        """Build a filter sized at ``bits_per_element * n`` bits.

        With the paper's defaults (8 bits/elt) and ``k_hashes=None`` this
        chooses ``k = 5``-ish via :func:`optimal_hash_count`.
        """
        pool: List[int] = list(elements)
        n = max(1, len(pool))
        m = max(8, bits_per_element * n)
        k = k_hashes if k_hashes is not None else optimal_hash_count(m, n)
        bf = cls(m, k, seed)
        bf.bulk_update(pool)
        return bf

    # -- mutation ----------------------------------------------------------

    def add(self, key: int) -> None:
        """Insert ``key`` (idempotent for membership purposes)."""
        bits = self._bits
        for idx in self._hashes.indices(key):
            bits[idx >> 3] |= 1 << (idx & 7)
        self.count += 1

    def update(self, keys: Iterable[int]) -> None:
        """Insert many keys."""
        for key in keys:
            self.add(key)

    def bulk_update(self, keys: Iterable[int]) -> None:
        """Insert many keys via the vectorised hash path.

        Bit-identical to :meth:`update` (bit-OR insertion is order
        free); an order of magnitude faster for the thousands-of-keys
        builds the summary adapters perform.
        """
        key_list = list(keys)
        rows = _batch.bloom_index_matrix(self._hashes, key_list)
        if rows is None:
            bits = self._bits
            for key in key_list:
                for idx in self._hashes.indices(key):
                    bits[idx >> 3] |= 1 << (idx & 7)
        else:
            # Unbuffered scatter-OR straight into the byte array —
            # duplicate probe positions combine exactly like the
            # scalar loop (OR is idempotent).
            np = _batch._numpy()
            flat = rows.ravel()
            arr = np.frombuffer(self._bits, dtype=np.uint8)
            np.bitwise_or.at(
                arr,
                (flat >> np.uint64(3)).astype(np.int64),
                np.left_shift(
                    np.uint8(1), (flat & np.uint64(7)).astype(np.uint8)
                ),
            )
        self.count += len(key_list)

    # -- queries -----------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        bits = self._bits
        return all(
            bits[idx >> 3] & (1 << (idx & 7)) for idx in self._hashes.indices(key)
        )

    def contains_many(self, keys: Iterable[int]) -> List[bool]:
        """Batched membership: one bool per key, same answers as ``in``.

        The numpy path probes every ``(key, hash)`` index against the
        unpacked bit array in one pass (a view of the filter's bytes,
        indexed by the uint64 probe matrix as it comes); without numpy
        it degrades to the scalar probe.  Shares :func:`~repro.hashing.
        batch.bloom_index_matrix` with :meth:`bulk_update`, so query and
        insertion can never disagree on probe positions.
        """
        key_list = list(keys)
        rows = _batch.bloom_index_matrix(self._hashes, key_list)
        if rows is None:
            return [key in self for key in key_list]
        np = _batch._numpy()
        bits = np.unpackbits(
            np.frombuffer(self._bits, dtype=np.uint8), bitorder="little"
        )
        return bits[rows].all(axis=1).tolist()

    def missing_from(self, candidates: Iterable[int]) -> Iterator[int]:
        """Yield candidate keys that are definitely *not* in the summarised set.

        This is the receiver-side reconciliation primitive: peer B streams
        its working set through peer A's filter; whatever falls out is in
        ``S_B - S_A`` with certainty (Bloom filters have no false
        negatives), so every symbol B then sends is guaranteed useful.
        """
        for key in candidates:
            if key not in self:
                yield key

    # -- introspection ------------------------------------------------------

    def fill_ratio(self) -> float:
        """Fraction of bits set — sanity signal for over-full filters."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.m

    def size_bytes(self) -> int:
        """Wire size of the bit array."""
        return len(self._bits)

    def to_bytes(self) -> bytes:
        """Serialise the bit array (header fields travel separately)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls, payload: bytes, m_bits: int, k_hashes: int, seed: int = 0
    ) -> "BloomFilter":
        """Reconstruct a filter received over the wire."""
        if len(payload) != (m_bits + 7) // 8:
            raise ValueError("payload length does not match m_bits")
        if k_hashes > 8 * len(payload):
            # Every probe walks k indices: an unbounded k hangs the reader.
            raise ValueError("k_hashes exceeds the payload's bit count")
        bf = cls(m_bits, k_hashes, seed)
        bf._bits = bytearray(payload)
        return bf

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """OR-combine two filters built with identical parameters."""
        if (self.m, self.k, self.seed) != (other.m, other.k, other.seed):
            raise ValueError("filters must share (m, k, seed) to be unioned")
        out = BloomFilter(self.m, self.k, self.seed)
        out._bits = bytearray(a | b for a, b in zip(self._bits, other._bits))
        out.count = self.count + other.count
        return out
