"""Registered :class:`~repro.reconcile.base.Summary` adapters.

One adapter per structure in the library, spanning the paper's whole
cost/precision spectrum:

========================  ==========  ===========================================
kind                      section     underlying structure
========================  ==========  ===========================================
``minwise``               §4          one packed int64 minima row (the card)
``modk``                  §4          :class:`repro.sketches.ModKSketch`
``random_sample``         §4          :class:`repro.sketches.RandomSampleSketch`
``bloom``                 §5.2        :class:`repro.filters.BloomFilter`
``counting_bloom``        §5.2 [11]   :class:`repro.filters.CountingBloomFilter`
``partitioned_bloom``     §5.2        :class:`repro.filters.PartitionedBloomFilter`
``art``                   §5.3        :class:`repro.art.ApproximateReconciliationTree`
``cpi``                   §5.1 [19]   :class:`repro.exact.CharacteristicPolynomialReconciler`
``hashset``               §5.1        :class:`repro.exact.HashSetSummary`
``wholeset``              §5.1        explicit key transfer
========================  ==========  ===========================================

Builds go through the vectorised kernels in :mod:`repro.hashing.batch`
wherever one exists, so sweeping summary kinds over large working sets
stays benchmarkable.  Wire sizes follow one convention: a 4-byte
set-size header plus the structure's own bytes plus its parameter
headers — matching the byte accounting the protocol messages report.
"""

import random
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from functools import lru_cache

from repro.art import ApproximateReconciliationTree, ARTSummary, find_difference
from repro.art.tree import ReconciliationTrie, value_hash
from repro.exact.cpi import CharacteristicPolynomialReconciler, CPISketch
from repro.exact.hashset import HashSetSummary
from repro.filters.bloom import BloomFilter, optimal_hash_count
from repro.filters.counting import CountingBloomFilter
from repro.filters.partitioned import PartitionedBloomFilter
from repro.hashing import batch as _batch
from repro.hashing.batch import (
    UNSET,
    mix64_batch,
    permutation_minima,
    permutation_minima_fold,
)
from repro.hashing.mix import mix64
from repro.hashing.permutations import PermutationFamily
from repro.reconcile.base import (
    Summary,
    SummaryError,
    clamped_symmetric_difference,
    hex_bytes,
    payload_int,
    payload_int_list,
    unhex_bytes,
)
from repro.reconcile.registry import register_summary

#: Default key universe, matching :data:`repro.delivery.working_set.
#: DEFAULT_KEY_UNIVERSE` (kept literal to avoid a delivery import here).
DEFAULT_UNIVERSE = 1 << 32

#: Widest min-wise universe: every minimum below it fits the 8 bytes
#: ``MinwiseSummary.wire_bytes`` charges per entry (one int64).
MAX_MINWISE_UNIVERSE = 1 << 63
_UNIVERSE_TOO_WIDE = (
    "min-wise universe must not exceed 2**63: a wider one yields minima "
    "that do not fit the 8 bytes a card entry is"
)


@lru_cache(maxsize=32)
def _shared_family(entries: int, universe: int, seed: int) -> PermutationFamily:
    """The min-wise permutation family for one parameter triple.

    :class:`PermutationFamily` is a pure function of its arguments (the
    paper fixes families "universally off-line"), and building one
    draws 128 modular inverses — far too costly to repeat per card
    when a large swarm refreshes thousands of cards per epoch.
    """
    return PermutationFamily(entries, universe, seed=seed)


def _estimate_intersection_from_resemblance(r: float, n_a: int, n_b: int) -> float:
    """``i = r (|A| + |B|) / (1 + r)`` (inclusion-exclusion, §4)."""
    return r * (n_a + n_b) / (1.0 + r) if r > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Sketches (§4) — calling cards: estimate, never search
# ---------------------------------------------------------------------------


@register_summary
class MinwiseSummary(Summary):
    """Min-wise sketch: per-permutation minima (the paper's preferred card).

    Params: ``entries`` (permutation count, 128 ≈ the 1KB card),
    ``universe`` (key range, at most 2^63 so a minimum fits the 8 bytes
    :meth:`wire_bytes` charges for it), ``seed`` (the universally
    agreed family).
    Permutations are defined over the family's universe, so ids are
    summarised modulo it (identity for ids below it): a source's fresh
    ids far beyond 2^32 fold the same way in every card and summary.

    The card *is* its row: one packed ``array('q')`` of ``entries``
    int64 minima (:data:`~repro.hashing.batch.UNSET` where no key has
    been folded in), which the kernels write, the estimates read and
    numpy views without a copy.  ``None`` appears only in
    :attr:`minima` and the payload.
    """

    kind = "minwise"
    supports_merge = True
    supports_estimate = True
    supports_incremental = True

    def __init__(
        self,
        row: array,
        set_size: int,
        entries: int,
        universe: int,
        seed: int,
        local_ids: Optional[frozenset] = None,
    ):
        self._row = row
        self.set_size = set_size
        self.entries = entries
        self.universe = universe
        self.seed = seed
        self._local_ids = local_ids

    @property
    def minima(self) -> List[Optional[int]]:
        """The vector that goes on the wire, ``None`` where unset."""
        return [None if m == UNSET else m for m in self._row]

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        entries: int = 128,
        universe: int = DEFAULT_UNIVERSE,
        seed: int = 0,
    ) -> "MinwiseSummary":
        if universe > MAX_MINWISE_UNIVERSE:
            raise SummaryError(_UNIVERSE_TOO_WIDE)
        family = _shared_family(entries, universe, seed)
        pool = frozenset(i % universe for i in ids)
        row = permutation_minima(family, pool)
        return cls(row, len(pool), entries, universe, seed, local_ids=pool)

    def absorb(self, new_ids: Iterable[int]) -> "MinwiseSummary":
        """Coordinate-wise min against the fresh ids' minima (min is
        associative, so this is exactly the union's sketch)."""
        pool = self._require_local("incremental min-wise update")
        fresh = frozenset(i % self.universe for i in new_ids) - pool
        if not fresh:
            return self
        family = _shared_family(self.entries, self.universe, self.seed)
        merged = permutation_minima_fold(family, fresh, self._row)
        union = pool | fresh
        return MinwiseSummary(
            merged, len(union), self.entries, self.universe, self.seed,
            local_ids=union,
        )

    def wire_bytes(self) -> int:
        return 4 + 8 * len(self._row)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "entries": self.entries,
            "universe": self.universe,
            "seed": self.seed,
            "minima": self.minima,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MinwiseSummary":
        entries = payload_int(payload, "entries")
        universe = payload_int(payload, "universe", DEFAULT_UNIVERSE)
        set_size = payload_int(payload, "set_size")
        if entries < 1 or universe < 1 or set_size < 0:
            raise SummaryError(
                "minwise payload needs entries >= 1, universe >= 1 and "
                "set_size >= 0"
            )
        if universe > MAX_MINWISE_UNIVERSE:
            raise SummaryError(_UNIVERSE_TOO_WIDE)
        minima = payload.get("minima")
        if not isinstance(minima, (list, tuple)) or len(minima) != entries:
            raise SummaryError("minwise payload needs one minimum per entry")
        for m in minima:
            if m is not None and (
                isinstance(m, bool) or not isinstance(m, int) or not 0 <= m < universe
            ):
                raise SummaryError(
                    f"minwise minima must be integers or null, inside "
                    f"[0, {universe}); got {m!r}"
                )
        row = array("q", [UNSET if m is None else m for m in minima])
        return cls(row, set_size, entries, universe, payload_int(payload, "seed", 0))

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"entries": self.entries, "universe": self.universe, "seed": self.seed}

    def _check_family(self, other: "MinwiseSummary") -> None:
        self._check_kind(other)
        if (self.entries, self.universe, self.seed) != (
            other.entries,
            other.universe,
            other.seed,
        ):
            raise SummaryError(
                "min-wise summaries are only comparable under the same "
                "universally agreed permutation family"
            )

    def merge(self, other: "MinwiseSummary") -> "MinwiseSummary":
        """Coordinate-wise minimum — the sketch of the union (§4)."""
        self._check_family(other)
        merged = array(
            "q",
            [
                b if a == UNSET else (a if b == UNSET or a < b else b)
                for a, b in zip(self._row, other._row)
            ],
        )
        ids, size = self._merged_local_ids(other)
        return MinwiseSummary(
            merged, size, self.entries, self.universe, self.seed, local_ids=ids
        )

    def estimate_resemblance(self, other: "MinwiseSummary") -> float:
        """Fraction of matching positions — unbiased estimate of ``r``."""
        self._check_family(other)
        if self.set_size == 0 and other.set_size == 0:
            return 0.0
        matches = sum(
            1 for a, b in zip(self._row, other._row) if a == b and a != UNSET
        )
        return matches / len(self._row)

    def estimate_resemblance_many(
        self, others: Sequence["MinwiseSummary"]
    ) -> List[float]:
        """``[self.estimate_resemblance(o) for o in others]``, the same
        floats bit for bit, by one array comparison when numpy is there.

        This is the estimate kernel every many-candidate reader asks —
        rewiring, the catalog gate, join planning.  A single ``other``
        or no numpy take the positional loop.
        """
        np = _batch._numpy() if len(others) > 1 else None
        if np is None:
            return [self.estimate_resemblance(o) for o in others]
        family = (self.entries, self.universe, self.seed)
        for o in others:
            if type(o) is not MinwiseSummary or (
                o.entries, o.universe, o.seed
            ) != family:
                self._check_family(o)  # raises on a stranger
        entries = len(self._row)
        # The cards' buffers, stacked: one memcpy per row, no boxing.
        rows = np.frombuffer(
            b"".join(o._row for o in others), dtype=np.int64
        ).reshape(len(others), entries)
        mine = np.frombuffer(self._row, dtype=np.int64)
        matches = ((rows == mine) & (mine != UNSET)).sum(axis=1).tolist()
        if self.set_size == 0:
            return [
                0.0 if o.set_size == 0 else m / entries
                for o, m in zip(others, matches)
            ]
        return [m / entries for m in matches]

    def estimate_difference(self, other: "MinwiseSummary") -> float:
        r = self.estimate_resemblance(other)
        i = _estimate_intersection_from_resemblance(r, self.set_size, other.set_size)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class ModKSummary(Summary):
    """Mod-k sample: elements whose mixed key is ``0 (mod modulus)``.

    Params: ``modulus`` (expected sample = n/modulus), ``seed``,
    ``max_elements`` (bottom-k truncation, packet limits).
    """

    kind = "modk"
    supports_merge = True
    supports_estimate = True

    def __init__(
        self,
        sample: Iterable[int],
        set_size: int,
        modulus: int,
        seed: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.sample = frozenset(sample)
        self.set_size = set_size
        self.modulus = modulus
        self.seed = seed
        self._local_ids = local_ids

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        modulus: int = 16,
        seed: int = 0,
        max_elements: Optional[int] = None,
    ) -> "ModKSummary":
        if modulus <= 0:
            raise SummaryError("modulus must be positive")
        pool = frozenset(ids)
        key_list = sorted(pool)
        mixed = mix64_batch(key_list, seed)
        sample = [x for x, h in zip(key_list, mixed) if h % modulus == 0]
        if max_elements is not None:
            if max_elements < 0:
                raise SummaryError("max_elements must be non-negative")
            # Bottom-k clip: both peers keep the smallest mixed keys, so
            # truncated samples stay comparable (§4's packet-limit fix).
            by_hash = sorted(sample, key=lambda x: mix64(x, seed))
            sample = by_hash[:max_elements]
        return cls(sample, len(pool), modulus, seed, local_ids=pool)

    def wire_bytes(self) -> int:
        return 4 + 8 * len(self.sample)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "modulus": self.modulus,
            "seed": self.seed,
            "sample": sorted(self.sample),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ModKSummary":
        return cls(
            payload_int_list(payload, "sample"),
            payload_int(payload, "set_size"),
            payload_int(payload, "modulus"),
            payload_int(payload, "seed", 0),
        )

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"modulus": self.modulus, "seed": self.seed}

    def _check_comparable(self, other: "ModKSummary") -> None:
        self._check_kind(other)
        if (self.modulus, self.seed) != (other.modulus, other.seed):
            raise SummaryError(
                "mod-k summaries are only comparable with identical modulus and seed"
            )

    def merge(self, other: "ModKSummary") -> "ModKSummary":
        """Sample union — the mod-k sample of the set union."""
        self._check_comparable(other)
        ids, size = self._merged_local_ids(other)
        return ModKSummary(
            self.sample | other.sample, size, self.modulus, self.seed, local_ids=ids
        )

    def estimate_difference(self, other: "ModKSummary") -> float:
        self._check_comparable(other)
        union = len(self.sample | other.sample)
        r = len(self.sample & other.sample) / union if union else 0.0
        i = _estimate_intersection_from_resemblance(r, self.set_size, other.set_size)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class RandomSampleSummary(Summary):
    """``k`` random keys with replacement (§4's first, simplest card).

    Params: ``k`` (sample size), ``seed`` (deterministic draw).  Two
    *remote* samples cannot be compared with each other (the paper's
    noted drawback); estimation needs one locally built side.
    """

    kind = "random_sample"
    supports_estimate = True

    def __init__(
        self,
        sample: List[int],
        set_size: int,
        seed: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.sample = list(sample)
        self.set_size = set_size
        self.seed = seed
        self._local_ids = local_ids

    @classmethod
    def build(
        cls, ids: Iterable[int], k: int = 128, seed: int = 0,
    ) -> "RandomSampleSummary":
        if k < 0:
            raise SummaryError("sample size must be non-negative")
        pool = frozenset(ids)
        ordered = sorted(pool)
        rng = random.Random(seed)
        sample = [rng.choice(ordered) for _ in range(k)] if ordered else []
        return cls(sample, len(pool), seed, local_ids=pool)

    def wire_bytes(self) -> int:
        return 4 + 8 * len(self.sample)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "seed": self.seed,
            "sample": list(self.sample),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RandomSampleSummary":
        return cls(
            payload_int_list(payload, "sample"),
            payload_int(payload, "set_size"),
            payload_int(payload, "seed", 0),
        )

    def estimate_difference(self, other: "RandomSampleSummary") -> float:
        """Look ``other``'s sampled keys up in our own (local) set."""
        self._check_kind(other)
        local = self._require_local("random-sample difference estimation")
        if not other.sample:
            # No observations: fall back to the size-imbalance floor.
            return clamped_symmetric_difference(0.0, self.set_size, other.set_size)
        hits = sum(1 for key in other.sample if key in local)
        containment = hits / len(other.sample)  # |A ∩ B| / |B|, B = other
        i = containment * other.set_size
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


# ---------------------------------------------------------------------------
# Searchable summaries (§5.2-5.3) — membership and difference search
# ---------------------------------------------------------------------------


@register_summary
class BloomSummary(Summary):
    """Bloom filter of the working set (§5.2, the searchable default).

    Params: ``bits_per_element``, ``k_hashes`` (None = optimal), ``seed``.
    """

    kind = "bloom"
    supports_membership = True
    supports_difference = True
    supports_merge = True
    supports_estimate = True
    supports_incremental = True

    #: Build parameters retained on local builds so :meth:`absorb` can
    #: replay the exact auto-sizing a rebuild would use; ``None`` after
    #: wire reconstruction (absorb then refuses via ``_require_local``).
    _build_params: Optional[Dict[str, Any]] = None

    def __init__(
        self,
        bloom: BloomFilter,
        set_size: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.bloom = bloom
        self.set_size = set_size
        self._local_ids = local_ids

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        bits_per_element: int = 8,
        k_hashes: Optional[int] = None,
        seed: int = 0,
        m_bits: Optional[int] = None,
    ) -> "BloomSummary":
        """``m_bits`` pins the array size explicitly (skipping the
        n-scaled auto-sizing), which keeps :meth:`absorb` genuinely
        incremental: a fixed ``(m, k)`` never forces a resize rebuild.
        """
        pool = frozenset(ids)
        m, k = cls._sizing(len(pool), bits_per_element, k_hashes, m_bits)
        bloom = BloomFilter(m, k, seed)
        bloom.bulk_update(sorted(pool))
        out = cls(bloom, len(pool), local_ids=pool)
        out._build_params = {
            "bits_per_element": bits_per_element,
            "k_hashes": k_hashes,
            "seed": seed,
            "m_bits": m_bits,
        }
        return out

    @staticmethod
    def _sizing(
        n_ids: int,
        bits_per_element: int,
        k_hashes: Optional[int],
        m_bits: Optional[int],
    ) -> Tuple[int, int]:
        n = max(1, n_ids)
        m = m_bits if m_bits else max(8, bits_per_element * n)
        k = k_hashes if k_hashes is not None else optimal_hash_count(m, n)
        return m, k

    def absorb(self, new_ids: Iterable[int]) -> "BloomSummary":
        pool = self._require_local("incremental bloom update")
        if self._build_params is None:
            return super().absorb(new_ids)
        fresh = frozenset(new_ids) - pool
        if not fresh:
            return self
        union = pool | fresh
        p = self._build_params
        m, k = self._sizing(
            len(union), p["bits_per_element"], p["k_hashes"], p["m_bits"]
        )
        if (m, k) == (self.bloom.m, self.bloom.k):
            # Sizing unchanged: copy the live bits, OR in only the
            # fresh ids (scatter-OR is order-free, so this equals one
            # bulk build over the union bit for bit).
            bloom = BloomFilter.from_bytes(
                self.bloom.to_bytes(), m, k, self.bloom.seed
            )
            bloom.count = self.bloom.count
            bloom.bulk_update(sorted(fresh))
        else:
            bloom = BloomFilter(m, k, p["seed"])
            bloom.bulk_update(sorted(union))
        out = BloomSummary(bloom, len(union), local_ids=union)
        out._build_params = p
        return out

    def wire_bytes(self) -> int:
        return 4 + 12 + self.bloom.size_bytes()

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "m_bits": self.bloom.m,
            "k_hashes": self.bloom.k,
            "seed": self.bloom.seed,
            "count": self.bloom.count,
            "bits": hex_bytes(self.bloom.to_bytes()),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BloomSummary":
        try:
            bloom = BloomFilter.from_bytes(
                unhex_bytes(payload.get("bits"), "bits"),
                payload_int(payload, "m_bits"),
                payload_int(payload, "k_hashes"),
                payload_int(payload, "seed", 0),
            )
        except ValueError as exc:
            raise SummaryError(f"invalid bloom payload: {exc}") from exc
        bloom.count = payload_int(payload, "count", 0)
        return cls(bloom, payload_int(payload, "set_size"))

    def may_contain(self, key: int) -> bool:
        return key in self.bloom

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """The :meth:`may_contain` walk, batched.

        :meth:`~repro.filters.bloom.BloomFilter.contains_many` probes
        the same rows as insertion, so the answers are identical; this
        is the per-refresh kernel of every ``/BF`` strategy.
        """
        pool = list(candidates)
        hits = self.bloom.contains_many(pool)
        return [x for x, hit in zip(pool, hits) if not hit]

    def merge(self, other: "BloomSummary") -> "BloomSummary":
        self._check_kind(other)
        try:
            union = self.bloom.union(other.bloom)
        except ValueError as exc:
            raise SummaryError(str(exc)) from exc
        ids, size = self._merged_local_ids(other)
        return BloomSummary(union, size, local_ids=ids)

    def estimate_difference(self, other: "Summary") -> float:
        """Stream our (local) ids through the other summary's membership."""
        local = self._require_local("bloom difference estimation")
        if not getattr(other, "supports_membership", False):
            raise SummaryError(
                f"cannot estimate against a {getattr(other, 'kind', '?')} summary"
            )
        ours_missing = sum(1 for key in local if not other.may_contain(key))
        i = len(local) - ours_missing
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class CountingBloomSummary(BloomSummary):
    """Counting Bloom filter (§5.2 background [11]): deletion-capable.

    Params: ``buckets_per_element``, ``k_hashes``, ``seed``.  Merging
    sums counters (saturating), so long-lived peers can fold summaries
    without losing the ability to delete later.
    """

    kind = "counting_bloom"
    supports_membership = True
    supports_difference = True
    supports_merge = True
    supports_estimate = True
    supports_incremental = True

    def __init__(
        self,
        cbf: CountingBloomFilter,
        set_size: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.cbf = cbf
        self.set_size = set_size
        self._local_ids = local_ids

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        buckets_per_element: int = 8,
        k_hashes: int = 5,
        seed: int = 0,
        m_buckets: Optional[int] = None,
    ) -> "CountingBloomSummary":
        """``m_buckets`` pins the counter-array size (same role as
        ``m_bits`` on :class:`BloomSummary`): fixed sizing keeps
        :meth:`absorb` incremental instead of resize-rebuilding."""
        pool = frozenset(ids)
        if m_buckets:
            cbf = CountingBloomFilter(m_buckets, k_hashes, seed)
            for x in sorted(pool):
                cbf.add(x)
        else:
            cbf = CountingBloomFilter.for_elements(
                sorted(pool),
                buckets_per_element=buckets_per_element,
                k_hashes=k_hashes,
                seed=seed,
            )
        out = cls(cbf, len(pool), local_ids=pool)
        out._build_params = {
            "buckets_per_element": buckets_per_element,
            "k_hashes": k_hashes,
            "seed": seed,
            "m_buckets": m_buckets,
        }
        return out

    def absorb(self, new_ids: Iterable[int]) -> "CountingBloomSummary":
        pool = self._require_local("incremental counting-bloom update")
        if self._build_params is None:
            return Summary.absorb(self, new_ids)
        fresh = frozenset(new_ids) - pool
        if not fresh:
            return self
        union = pool | fresh
        p = self._build_params
        m = p["m_buckets"] or max(
            8, p["buckets_per_element"] * max(1, len(union))
        )
        if m == self.cbf.m:
            # Saturating increments commute, so adding only the fresh
            # ids onto copied counters equals one build over the union.
            cbf = CountingBloomFilter.from_bytes(
                self.cbf.to_bytes(), m, self.cbf.k, self.cbf.seed,
                count=self.cbf.count,
            )
            for x in sorted(fresh):
                cbf.add(x)
        else:
            cbf = CountingBloomFilter.for_elements(
                sorted(union),
                buckets_per_element=p["buckets_per_element"],
                k_hashes=p["k_hashes"],
                seed=p["seed"],
            )
        out = CountingBloomSummary(cbf, len(union), local_ids=union)
        out._build_params = p
        return out

    def wire_bytes(self) -> int:
        return 4 + 12 + self.cbf.size_bytes()

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "m_buckets": self.cbf.m,
            "k_hashes": self.cbf.k,
            "seed": self.cbf.seed,
            "count": self.cbf.count,
            "counters": hex_bytes(self.cbf.to_bytes()),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CountingBloomSummary":
        try:
            cbf = CountingBloomFilter.from_bytes(
                unhex_bytes(payload.get("counters"), "counters"),
                payload_int(payload, "m_buckets"),
                payload_int(payload, "k_hashes"),
                payload_int(payload, "seed", 0),
                count=payload_int(payload, "count", 0),
            )
        except ValueError as exc:
            raise SummaryError(f"invalid counting-bloom payload: {exc}") from exc
        return cls(cbf, payload_int(payload, "set_size"))

    def may_contain(self, key: int) -> bool:
        return key in self.cbf

    # Counters have no batched probe: keep the scalar walk.
    missing_from = Summary.missing_from

    def merge(self, other: "CountingBloomSummary") -> "CountingBloomSummary":
        self._check_kind(other)
        try:
            merged = self.cbf.merge(other.cbf)
        except ValueError as exc:
            raise SummaryError(str(exc)) from exc
        ids, size = self._merged_local_ids(other)
        return CountingBloomSummary(merged, size, local_ids=ids)


@register_summary
class PartitionedBloomSummary(Summary):
    """One residue-class partition filter (§5.2's "scaling up" step).

    Params: ``rho`` (partition count), ``beta`` (this filter's
    residue), ``bits_per_element``, ``k_hashes``, ``seed``.  Covers
    only keys ``≡ beta (mod rho)``: :meth:`may_contain` answers True
    (unknown) for uncovered keys, and :meth:`missing_from` reports
    definite differences within the covered class only — further
    partitions pipeline over as separate summaries.
    """

    kind = "partitioned_bloom"
    supports_membership = True
    supports_difference = True
    supports_estimate = True
    partial_coverage = True

    def __init__(
        self,
        pf: PartitionedBloomFilter,
        set_size: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.pf = pf
        self.set_size = set_size
        self._local_ids = local_ids

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        rho: int = 4,
        beta: int = 0,
        bits_per_element: int = 8,
        k_hashes: Optional[int] = None,
        seed: int = 0,
    ) -> "PartitionedBloomSummary":
        pool = frozenset(ids)
        try:
            pf = PartitionedBloomFilter(
                sorted(pool),
                rho=rho,
                beta=beta,
                bits_per_element=bits_per_element,
                k_hashes=k_hashes,
                seed=seed,
            )
        except ValueError as exc:
            raise SummaryError(str(exc)) from exc
        return cls(pf, len(pool), local_ids=pool)

    def wire_bytes(self) -> int:
        return 4 + 12 + 8 + self.pf.size_bytes()  # + (rho, beta) header

    def to_payload(self) -> Dict[str, Any]:
        inner = self.pf.bloom
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "rho": self.pf.rho,
            "beta": self.pf.beta,
            "seed": self.pf.seed,
            "member_count": self.pf.member_count,
            "m_bits": inner.m,
            "k_hashes": inner.k,
            "bits": hex_bytes(inner.to_bytes()),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PartitionedBloomSummary":
        seed = payload_int(payload, "seed", 0)
        try:
            bloom = BloomFilter.from_bytes(
                unhex_bytes(payload.get("bits"), "bits"),
                payload_int(payload, "m_bits"),
                payload_int(payload, "k_hashes"),
                seed,
            )
            pf = PartitionedBloomFilter.from_filter(
                bloom,
                rho=payload_int(payload, "rho"),
                beta=payload_int(payload, "beta"),
                seed=seed,
                member_count=payload_int(payload, "member_count", 0),
            )
        except ValueError as exc:
            raise SummaryError(f"invalid partitioned-bloom payload: {exc}") from exc
        return cls(pf, payload_int(payload, "set_size"))

    def may_contain(self, key: int) -> bool:
        # Uncovered keys are unknown — "may contain" is the sound answer.
        if not self.pf.covers(key):
            return True
        return key in self.pf

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """Definite differences within the covered residue class."""
        return list(self.pf.missing_from(candidates))

    def estimate_difference(self, other: "Summary") -> float:
        """Extrapolate the covered class's difference to the whole set."""
        local = self._require_local("partitioned-bloom difference estimation")
        if not isinstance(other, PartitionedBloomSummary):
            raise SummaryError(
                f"cannot estimate against a {getattr(other, 'kind', '?')} summary"
            )
        covered = [key for key in local if other.pf.covers(key)]
        if not covered:
            return clamped_symmetric_difference(
                float(min(self.set_size, other.set_size)),
                self.set_size,
                other.set_size,
            )
        missing = sum(1 for key in covered if key not in other.pf)
        scale = len(local) / len(covered)
        i = len(local) - missing * scale
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class ARTSummaryAdapter(Summary):
    """Approximate reconciliation tree (§5.3): Bloom-folded hash trie.

    Params: ``bits_per_element`` (total Bloom budget),
    ``leaf_bits_per_element`` (split; None = even), ``seed`` (the
    agreed hash functions), ``correction`` (search tolerance for
    internal false positives).  :meth:`missing_from` runs the paper's
    ``O(d log n)`` trie search; :meth:`may_contain` probes the leaf
    filter with the key's value hash.
    """

    kind = "art"
    supports_membership = True
    supports_difference = True
    supports_estimate = True

    def __init__(
        self,
        summary: ARTSummary,
        set_size: int,
        correction: int = 1,
        trie: Optional[ReconciliationTrie] = None,
        local_ids: Optional[frozenset] = None,
    ):
        self.art_summary = summary
        self.set_size = set_size
        self.correction = correction
        self._trie = trie
        self._local_ids = local_ids

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        bits_per_element: int = 8,
        leaf_bits_per_element: Optional[float] = None,
        seed: int = 0,
        correction: int = 1,
    ) -> "ARTSummaryAdapter":
        if correction < 0:
            raise SummaryError("correction level must be non-negative")
        pool = frozenset(ids)
        try:
            art = ApproximateReconciliationTree(
                pool,
                bits_per_element=bits_per_element,
                leaf_bits_per_element=leaf_bits_per_element,
                seed=seed,
            )
            summary = art.summary()
        except ValueError as exc:
            raise SummaryError(str(exc)) from exc
        return cls(
            summary, len(pool), correction=correction, trie=art.trie, local_ids=pool
        )

    def wire_bytes(self) -> int:
        return 4 + 2 * 12 + self.art_summary.size_bytes()

    def to_payload(self) -> Dict[str, Any]:
        leaf, internal = self.art_summary.leaf_filter, self.art_summary.internal_filter
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "seed": self.art_summary.seed,
            "bits_per_element": self.art_summary.bits_per_element,
            "leaf_bits_per_element": self.art_summary.leaf_bits_per_element,
            "correction": self.correction,
            "leaf": {
                "m_bits": leaf.m,
                "k_hashes": leaf.k,
                "seed": leaf.seed,
                "bits": hex_bytes(leaf.to_bytes()),
            },
            "internal": {
                "m_bits": internal.m,
                "k_hashes": internal.k,
                "seed": internal.seed,
                "bits": hex_bytes(internal.to_bytes()),
            },
        }

    @staticmethod
    def _filter_from(payload: Any, field: str) -> BloomFilter:
        if not isinstance(payload, dict):
            raise SummaryError(f"art payload field {field!r} must be an object")
        try:
            return BloomFilter.from_bytes(
                unhex_bytes(payload.get("bits"), f"{field}.bits"),
                payload_int(payload, "m_bits"),
                payload_int(payload, "k_hashes"),
                payload_int(payload, "seed", 0),
            )
        except ValueError as exc:
            raise SummaryError(f"invalid art payload: {exc}") from exc

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ARTSummaryAdapter":
        bpe = payload.get("bits_per_element", 8)
        leaf_bpe = payload.get("leaf_bits_per_element")
        summary = ARTSummary.from_filters(
            cls._filter_from(payload.get("leaf"), "leaf"),
            cls._filter_from(payload.get("internal"), "internal"),
            seed=payload_int(payload, "seed", 0),
            bits_per_element=bpe,
            leaf_bits_per_element=leaf_bpe,
        )
        return cls(
            summary,
            payload_int(payload, "set_size"),
            correction=payload_int(payload, "correction", 1),
        )

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"seed": self.art_summary.seed, "correction": self.correction}

    def may_contain(self, key: int) -> bool:
        """Probe the leaf filter with the key's (seed-only) value hash."""
        return self.art_summary.matches_leaf(
            value_hash(key, self.art_summary.seed)
        )

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """The paper's search: walk the candidates' trie against us."""
        trie = ReconciliationTrie(candidates, seed=self.art_summary.seed)
        stats = find_difference(trie, self.art_summary, correction=self.correction)
        return stats.differences

    def estimate_difference(self, other: "Summary") -> float:
        """Search our own (local) trie against the other summary."""
        self._check_kind(other)
        self._require_local("art difference estimation")
        assert isinstance(other, ARTSummaryAdapter)
        if self._trie is None or self._trie.seed != other.art_summary.seed:
            raise SummaryError(
                "art summaries are only comparable under the same agreed hash seed"
            )
        stats = find_difference(
            self._trie, other.art_summary, correction=other.correction
        )
        i = self.set_size - len(stats.differences)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


# ---------------------------------------------------------------------------
# Exact baselines (§5.1)
# ---------------------------------------------------------------------------


@register_summary
class CPISummary(Summary):
    """Characteristic-polynomial evaluations (Minsky-Trachtenberg-Zippel).

    Params: ``max_discrepancy`` (the bound ``d`` the sketch is sized
    for), ``seed`` (the agreed evaluation points).  ``O(d)`` words on
    the wire; :meth:`missing_from` recovers ``candidates - S`` exactly
    — or raises :class:`~repro.exact.cpi.DiscrepancyExceeded` when the
    bound was too small, exactly as the protocol in [19] retries.
    """

    kind = "cpi"
    supports_difference = True
    supports_estimate = True
    exact = True

    def __init__(
        self,
        sketch: CPISketch,
        local_ids: Optional[frozenset] = None,
    ):
        self.sketch = sketch
        self.set_size = sketch.set_size
        self._local_ids = local_ids

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        max_discrepancy: int = 64,
        seed: int = 0,
    ) -> "CPISummary":
        pool = frozenset(ids)
        try:
            reconciler = CharacteristicPolynomialReconciler(max_discrepancy, seed)
            sketch = reconciler.sketch(sorted(pool))
        except ValueError as exc:
            raise SummaryError(str(exc)) from exc
        return cls(sketch, local_ids=pool)

    def _reconciler(self) -> CharacteristicPolynomialReconciler:
        return CharacteristicPolynomialReconciler(
            self.sketch.max_discrepancy, self.sketch.seed
        )

    @staticmethod
    def wire_bytes_for_bound(max_discrepancy: int) -> int:
        """Wire size a sketch sized for ``max_discrepancy`` would have.

        Computed through the real :meth:`CPISketch.size_bytes`, so
        reported-but-not-run cells (the ``summary_tradeoff`` scenario's
        "prohibitively large d" regime) can never drift from the cost
        a run cell would report.
        """
        from repro.exact.cpi import VERIFY_POINTS

        sketch = CPISketch(
            evaluations=[0] * max_discrepancy,
            verify_evaluations=[0] * VERIFY_POINTS,
            set_size=0,
            max_discrepancy=max_discrepancy,
            seed=0,
        )
        return 4 + sketch.size_bytes()

    def wire_bytes(self) -> int:
        return 4 + self.sketch.size_bytes()

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "max_discrepancy": self.sketch.max_discrepancy,
            "seed": self.sketch.seed,
            "evaluations": list(self.sketch.evaluations),
            "verify_evaluations": list(self.sketch.verify_evaluations),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CPISummary":
        sketch = CPISketch(
            evaluations=payload_int_list(payload, "evaluations"),
            verify_evaluations=payload_int_list(payload, "verify_evaluations"),
            set_size=payload_int(payload, "set_size"),
            max_discrepancy=payload_int(payload, "max_discrepancy"),
            seed=payload_int(payload, "seed", 0),
        )
        return cls(sketch)

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """Recover ``candidates - S`` exactly (raises past the bound)."""
        return sorted(self._reconciler().difference(self.sketch, candidates))

    def estimate_difference(self, other: "Summary") -> float:
        """Exact discrepancy, computed from our retained ids."""
        self._check_kind(other)
        local = self._require_local("cpi difference estimation")
        assert isinstance(other, CPISummary)
        ours_minus_theirs = other._reconciler().difference(other.sketch, local)
        i = len(local) - len(ours_minus_theirs)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class HashSetSummaryAdapter(Summary):
    """Hashed-key set (§5.1): exact up to inverse-polynomial misses.

    Params: ``hash_bits`` (0 = the paper's ``poly(|S|)`` auto-sizing),
    ``seed``.  Two hash sets compare directly, so estimation works
    wire-to-wire without local ids.
    """

    kind = "hashset"
    supports_membership = True
    supports_difference = True
    supports_merge = True
    supports_estimate = True
    supports_incremental = True

    #: ``hash_bits`` as requested at build time (0 = poly auto-sizing);
    #: ``None`` after wire reconstruction, which cannot absorb.
    _requested_bits: Optional[int] = None

    def __init__(
        self,
        summary: HashSetSummary,
        set_size: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.hashset = summary
        self.set_size = set_size
        self._local_ids = local_ids

    @classmethod
    def build(
        cls, ids: Iterable[int], hash_bits: int = 0, seed: int = 0,
    ) -> "HashSetSummaryAdapter":
        pool = frozenset(ids)
        try:
            if hash_bits:
                summary = HashSetSummary(sorted(pool), hash_bits=hash_bits, seed=seed)
            else:
                summary = HashSetSummary.with_polynomial_range(sorted(pool), seed=seed)
        except ValueError as exc:
            raise SummaryError(str(exc)) from exc
        out = cls(summary, len(pool), local_ids=pool)
        out._requested_bits = hash_bits
        return out

    def absorb(self, new_ids: Iterable[int]) -> "HashSetSummaryAdapter":
        pool = self._require_local("incremental hash-set update")
        if self._requested_bits is None:
            return super().absorb(new_ids)
        fresh = frozenset(new_ids) - pool
        if not fresh:
            return self
        union = pool | fresh
        if self._requested_bits:
            bits = self._requested_bits
        else:
            bits = HashSetSummary.polynomial_bits(len(union))
        if bits == self.hashset.hash_bits:
            hashes = self.hashset.hashes | {
                mix64(x, self.hashset.seed) >> (64 - bits) for x in fresh
            }
            summary = HashSetSummary.from_hashes(
                hashes, hash_bits=bits, seed=self.hashset.seed
            )
        else:
            summary = HashSetSummary(
                sorted(union), hash_bits=bits, seed=self.hashset.seed
            )
        out = HashSetSummaryAdapter(summary, len(union), local_ids=union)
        out._requested_bits = self._requested_bits
        return out

    def wire_bytes(self) -> int:
        return 4 + 2 + self.hashset.size_bytes()  # + hash-width header

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "hash_bits": self.hashset.hash_bits,
            "seed": self.hashset.seed,
            "hashes": sorted(self.hashset.hashes),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "HashSetSummaryAdapter":
        try:
            summary = HashSetSummary.from_hashes(
                payload_int_list(payload, "hashes"),
                hash_bits=payload_int(payload, "hash_bits"),
                seed=payload_int(payload, "seed", 0),
            )
        except ValueError as exc:
            raise SummaryError(f"invalid hashset payload: {exc}") from exc
        return cls(summary, payload_int(payload, "set_size"))

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"hash_bits": self.hashset.hash_bits, "seed": self.hashset.seed}

    def _check_comparable(self, other: "HashSetSummaryAdapter") -> None:
        self._check_kind(other)
        if (self.hashset.hash_bits, self.hashset.seed) != (
            other.hashset.hash_bits,
            other.hashset.seed,
        ):
            raise SummaryError(
                "hash-set summaries are only comparable with identical "
                "hash width and seed"
            )

    def may_contain(self, key: int) -> bool:
        return key in self.hashset

    def merge(self, other: "HashSetSummaryAdapter") -> "HashSetSummaryAdapter":
        self._check_comparable(other)
        merged = HashSetSummary.from_hashes(
            self.hashset.hashes | other.hashset.hashes,
            hash_bits=self.hashset.hash_bits,
            seed=self.hashset.seed,
        )
        ids, size = self._merged_local_ids(other, fallback=len(merged.hashes))
        return HashSetSummaryAdapter(merged, size, local_ids=ids)

    def estimate_difference(self, other: "HashSetSummaryAdapter") -> float:
        """Hash sets compare directly — no local ids needed."""
        self._check_comparable(other)
        i = len(self.hashset.hashes & other.hashset.hashes)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class WholeSetSummary(Summary):
    """Explicit key transfer — the trivial exact baseline (§5.1).

    Params: ``key_bits`` (wire width per key).  The ids *are* the
    payload, so every capability is supported and exact; the cost is
    the ``O(|S| log u)`` wire size everything else exists to avoid.
    """

    kind = "wholeset"
    supports_membership = True
    supports_difference = True
    supports_merge = True
    supports_estimate = True
    exact = True

    def __init__(self, ids: Iterable[int], key_bits: int = 64):
        if not 8 <= key_bits <= 64:
            raise SummaryError("key width must be between 8 and 64 bits")
        pool = frozenset(ids)
        self.ids = pool
        self.key_bits = key_bits
        self.set_size = len(pool)
        self._local_ids = pool

    @classmethod
    def build(
        cls, ids: Iterable[int], key_bits: int = 64,
    ) -> "WholeSetSummary":
        return cls(ids, key_bits=key_bits)

    def wire_bytes(self) -> int:
        # Ceiling division: a 12-bit key width really costs 1.5 B/key.
        return 4 + (self.key_bits * self.set_size + 7) // 8

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "key_bits": self.key_bits,
            "ids": sorted(self.ids),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "WholeSetSummary":
        return cls(
            payload_int_list(payload, "ids"),
            key_bits=payload_int(payload, "key_bits", 64),
        )

    def may_contain(self, key: int) -> bool:
        return key in self.ids

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        return [key for key in candidates if key not in self.ids]

    def merge(self, other: "WholeSetSummary") -> "WholeSetSummary":
        self._check_kind(other)
        return WholeSetSummary(self.ids | other.ids, key_bits=self.key_bits)

    def estimate_difference(self, other: "WholeSetSummary") -> float:
        self._check_kind(other)
        return float(len(self.ids ^ other.ids))


__all__ = [
    "DEFAULT_UNIVERSE",
    "MinwiseSummary",
    "ModKSummary",
    "RandomSampleSummary",
    "BloomSummary",
    "CountingBloomSummary",
    "PartitionedBloomSummary",
    "ARTSummaryAdapter",
    "CPISummary",
    "HashSetSummaryAdapter",
    "WholeSetSummary",
]
