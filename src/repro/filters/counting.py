"""Counting Bloom filter (Fan et al., "Summary Cache" — paper reference [11]).

The base paper cites Summary Cache for Bloom filter background; counting
filters are the standard tool when a summarised set must also support
removal.  In our delivery pipeline they back long-lived peers whose working
sets shrink (symbols discarded after decoding finishes or when re-encoding
frees buffer space) without forcing a full summary rebuild.
"""

import struct
from array import array
from typing import Iterable

from repro.hashing.families import BloomHashes


class CountingBloomFilter:
    """Bloom filter with per-bucket counters supporting deletion.

    Counters saturate at the array type's maximum rather than wrapping;
    a saturated counter can no longer be decremented reliably, so
    :meth:`remove` refuses to touch saturated buckets (documented false
    positives are preferable to corrupting the summary with false
    negatives).
    """

    _COUNTER_MAX = 0xFFFF  # 'H' = unsigned 16-bit

    def __init__(self, m_buckets: int, k_hashes: int, seed: int = 0):
        if m_buckets <= 0:
            raise ValueError("filter must have at least one bucket")
        if k_hashes <= 0:
            raise ValueError("need at least one hash function")
        self.m = m_buckets
        self.k = k_hashes
        self.seed = seed
        self._hashes = BloomHashes(k_hashes, m_buckets, seed)
        self._counters = array("H", bytes(2 * m_buckets))
        self.count = 0

    @classmethod
    def for_elements(
        cls,
        elements: Iterable[int],
        buckets_per_element: int = 8,
        k_hashes: int = 5,
        seed: int = 0,
    ) -> "CountingBloomFilter":
        """Build and populate a filter in one call."""
        pool = list(elements)
        cbf = cls(max(8, buckets_per_element * max(1, len(pool))), k_hashes, seed)
        for x in pool:
            cbf.add(x)
        return cbf

    def add(self, key: int) -> None:
        """Insert ``key``, incrementing its buckets (saturating)."""
        counters = self._counters
        for idx in self._hashes.indices(key):
            if counters[idx] < self._COUNTER_MAX:
                counters[idx] += 1
        self.count += 1

    def remove(self, key: int) -> None:
        """Delete one occurrence of ``key``.

        Raises:
            KeyError: if ``key`` is definitely absent — decrementing then
                would introduce false negatives for other keys.
        """
        if key not in self:
            raise KeyError(f"key {key} not present; refusing unsafe decrement")
        counters = self._counters
        for idx in self._hashes.indices(key):
            if counters[idx] < self._COUNTER_MAX:
                counters[idx] -= 1
        self.count -= 1

    def __contains__(self, key: int) -> bool:
        counters = self._counters
        return all(counters[idx] > 0 for idx in self._hashes.indices(key))

    def merge(self, other: "CountingBloomFilter") -> "CountingBloomFilter":
        """Counter-wise sum of two filters built with identical parameters.

        The counting analogue of Bloom union: the result summarises the
        multiset union (counters saturate rather than wrap).
        """
        if (self.m, self.k, self.seed) != (other.m, other.k, other.seed):
            raise ValueError("filters must share (m, k, seed) to be merged")
        out = CountingBloomFilter(self.m, self.k, self.seed)
        out._counters = array(
            "H",
            (
                min(self._COUNTER_MAX, a + b)
                for a, b in zip(self._counters, other._counters)
            ),
        )
        out.count = self.count + other.count
        return out

    def size_bytes(self) -> int:
        """In-memory size of the counter array."""
        return 2 * self.m

    def to_bytes(self) -> bytes:
        """Serialise the counters little-endian (headers travel separately)."""
        return struct.pack(f"<{self.m}H", *self._counters)

    @classmethod
    def from_bytes(
        cls, payload: bytes, m_buckets: int, k_hashes: int, seed: int = 0, count: int = 0
    ) -> "CountingBloomFilter":
        """Reconstruct a filter received over the wire."""
        if len(payload) != 2 * m_buckets:
            raise ValueError("payload length does not match m_buckets")
        if k_hashes > 8 * len(payload):
            # Every probe walks k indices: an unbounded k hangs the reader.
            raise ValueError("k_hashes exceeds the payload's bit count")
        cbf = cls(m_buckets, k_hashes, seed)
        cbf._counters = array("H", struct.unpack(f"<{m_buckets}H", payload))
        cbf.count = count
        return cbf
