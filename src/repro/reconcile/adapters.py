"""Registered :class:`~repro.reconcile.base.Summary` classes.

One class per structure in the library, spanning the paper's whole
cost/precision spectrum.  Each holds its structure's state itself; the
algorithm code a class calls lives beside the registry:

========================  ==========  ===========================================
kind                      section     state (and the code it calls)
========================  ==========  ===========================================
``minwise``               §4          one packed int64 minima row (the card)
``modk``                  §4          the keys whose mixed hash is 0 mod k
``random_sample``         §4          ``k`` keys drawn with replacement
``bloom``                 §5.2        a :class:`repro.filters.BloomFilter`
``counting_bloom``        §5.2 [11]   16-bit saturating counters
``partitioned_bloom``     §5.2        a Bloom filter of one residue class
``art``                   §5.3        leaf and internal Bloom filters
                                      (:mod:`repro.art` trie and search)
``cpi``                   §5.1 [19]   characteristic-polynomial evaluations
                                      (:mod:`repro.exact.cpi` reconciler)
``hashset``               §5.1        the set of truncated key hashes
``wholeset``              §5.1        the keys themselves
========================  ==========  ===========================================

Builds go through the vectorised kernels in :mod:`repro.hashing.batch`
wherever one exists, so sweeping summary kinds over large working sets
stays benchmarkable.  Wire sizes follow one convention: a 4-byte
set-size header plus the structure's own bytes plus its parameter
headers — matching the byte accounting the protocol messages report.
"""

import random
import struct
from array import array
from collections import deque
from itertools import chain
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from functools import lru_cache

from repro.art.search import find_difference
from repro.art.tree import ReconciliationTrie, value_hash
from repro.exact.cpi import VERIFY_POINTS, CharacteristicPolynomialReconciler
from repro.filters.bloom import BloomFilter, optimal_hash_count
from repro.hashing import batch as _batch
from repro.hashing.batch import UNSET, mix64_batch, permutation_minima_many
from repro.hashing.families import BloomHashes
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
from repro.seeding import choice

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
    supports_batch = True

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
        return cls.build_many([ids], entries, universe, seed)[0]

    @classmethod
    def build_many(
        cls,
        id_sets: Iterable[Iterable[int]],
        entries: int = 128,
        universe: int = DEFAULT_UNIVERSE,
        seed: int = 0,
    ) -> List["MinwiseSummary"]:
        """``[cls.build(ids, ...) for ids in id_sets]`` in one kernel
        pass (:func:`~repro.hashing.batch.permutation_minima_many`)."""
        if universe > MAX_MINWISE_UNIVERSE:
            raise SummaryError(_UNIVERSE_TOO_WIDE)
        family = _shared_family(entries, universe, seed)
        # ``universe.__rmod__`` is ``i % universe``, without a Python
        # frame per id.
        fold = universe.__rmod__
        pools = [frozenset(map(fold, ids)) for ids in id_sets]
        rows = permutation_minima_many(family, ((pool, None) for pool in pools))
        return [
            cls(row, len(pool), entries, universe, seed, local_ids=pool)
            for pool, row in zip(pools, rows)
        ]

    def absorb(self, new_ids: Iterable[int]) -> "MinwiseSummary":
        """Coordinate-wise min against the fresh ids' minima (min is
        associative, so this is exactly the union's sketch)."""
        return next(self.absorb_many([(self, new_ids)]))

    @classmethod
    def absorb_many(
        cls, folds: Iterable[Tuple["MinwiseSummary", Iterable[int]]]
    ) -> Iterator["MinwiseSummary"]:
        """``card.absorb(new_ids)`` for each ``(card, new_ids)`` pair,
        in order, in one kernel pass over cards of one family; a card
        nothing new folds into comes back as itself.

        Lazy on both ends: pairs are read as the kernel needs keys, and
        each card is yielded as soon as its row is done, so a caller
        that drops the card it replaces holds a kernel step's worth of
        cards twice, not the batch.
        """
        folds = iter(folds)
        head = next(folds, None)
        if head is None:
            return
        first = head[0]
        family = _shared_family(first.entries, first.universe, first.seed)
        queue: Deque[Tuple["MinwiseSummary", frozenset]] = deque()

        def minima_folds():
            for card, new_ids in chain([head], folds):
                pool = card._require_local("incremental min-wise update")
                fresh = frozenset(map(card.universe.__rmod__, new_ids)) - pool
                queue.append((card, fresh))
                if fresh:
                    first._check_family(card)
                    yield fresh, card._row

        for row in permutation_minima_many(family, minima_folds()):
            card, fresh = queue.popleft()
            while not fresh:
                yield card
                card, fresh = queue.popleft()
            union = card._local_ids | fresh
            yield cls(
                row, len(union), card.entries, card.universe, card.seed,
                local_ids=union,
            )
        for card, _fresh in queue:
            yield card

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
        sample = [choice(rng, ordered) for _ in range(k)] if ordered else []
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
        sample = payload_int_list(payload, "sample")
        set_size = payload_int(payload, "set_size")
        if set_size < 0 or (set_size == 0 and sample):
            raise SummaryError(
                "random-sample payload needs set_size >= 0, and an empty "
                "set cannot produce a non-empty sample"
            )
        return cls(sample, set_size, payload_int(payload, "seed", 0))

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


#: Counting-filter buckets are unsigned 16-bit counters that saturate.
_COUNTER_MAX = 0xFFFF


@register_summary
class CountingBloomSummary(BloomSummary):
    """Counting Bloom filter (§5.2 background [11]): deletion-capable.

    Params: ``buckets_per_element``, ``k_hashes``, ``seed`` and
    ``m_buckets`` (pins the counter-array size, the role ``m_bits``
    plays on :class:`BloomSummary`: fixed sizing keeps :meth:`absorb`
    incremental instead of resize-rebuilding).  One saturating 16-bit
    counter per bucket, so :meth:`remove` can delete a key and merging
    sums counters: long-lived peers can fold summaries without losing
    the ability to delete later.  A saturated counter is never
    decremented — a documented false positive beats a false negative.
    """

    kind = "counting_bloom"
    supports_membership = True
    supports_difference = True
    supports_merge = True
    supports_estimate = True
    supports_incremental = True

    def __init__(
        self,
        counters: array,
        k: int,
        seed: int,
        count: int,
        set_size: int,
        local_ids: Optional[frozenset] = None,
    ):
        self._counters = counters
        self.m = len(counters)
        self.k = k
        self.seed = seed
        #: Insertions with multiplicity (a merge adds both sides').
        self.count = count
        self.set_size = set_size
        self._local_ids = local_ids
        self._hashes = BloomHashes(k, self.m, seed)

    @staticmethod
    def _buckets(n_ids: int, p: Dict[str, Any]) -> int:
        return p["m_buckets"] or max(8, p["buckets_per_element"] * max(1, n_ids))

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        buckets_per_element: int = 8,
        k_hashes: int = 5,
        seed: int = 0,
        m_buckets: Optional[int] = None,
    ) -> "CountingBloomSummary":
        pool = frozenset(ids)
        p = {
            "buckets_per_element": buckets_per_element,
            "k_hashes": k_hashes,
            "seed": seed,
            "m_buckets": m_buckets,
        }
        m = cls._buckets(len(pool), p)
        if m < 1 or k_hashes < 1:
            raise SummaryError(
                "a counting filter needs at least one bucket and one hash function"
            )
        out = cls(array("H", bytes(2 * m)), k_hashes, seed, 0, len(pool), pool)
        out._count_in(sorted(pool))
        out._build_params = p
        return out

    def _count_in(self, keys: List[int]) -> None:
        """Increment ``keys``' buckets; construction only (a summary
        handed out is never mutated)."""
        counters, hashes = self._counters, self._hashes
        for key in keys:
            for idx in hashes.indices(key):
                if counters[idx] < _COUNTER_MAX:
                    counters[idx] += 1
        self.count += len(keys)

    def absorb(self, new_ids: Iterable[int]) -> "CountingBloomSummary":
        pool = self._require_local("incremental counting-bloom update")
        if self._build_params is None:
            return Summary.absorb(self, new_ids)
        fresh = frozenset(new_ids) - pool
        if not fresh:
            return self
        union = pool | fresh
        p = self._build_params
        if self._buckets(len(union), p) != self.m:
            return self.build(union, **p)
        # Saturating increments commute, so adding only the fresh ids
        # onto copied counters equals one build over the union.
        out = CountingBloomSummary(
            array("H", self._counters), self.k, self.seed, self.count,
            len(union), union,
        )
        out._count_in(sorted(fresh))
        out._build_params = p
        return out

    def remove(self, key: int) -> "CountingBloomSummary":
        """This summary with one occurrence of ``key`` deleted, as a new
        object.

        Refuses a key the summary does not hold — a locally built one
        knows its ids, a received one refuses a definite absence —
        since decrementing foreign buckets creates false negatives.
        """
        if not self.may_contain(key) or (
            self._local_ids is not None and key not in self._local_ids
        ):
            raise SummaryError(f"key {key} is not summarised; refusing to delete it")
        counters = array("H", self._counters)
        for idx in self._hashes.indices(key):
            if counters[idx] < _COUNTER_MAX:
                counters[idx] -= 1
        ids = None if self._local_ids is None else self._local_ids - {key}
        out = CountingBloomSummary(
            counters, self.k, self.seed, self.count - 1,
            max(0, self.set_size - 1), ids,
        )
        out._build_params = self._build_params
        return out

    def wire_bytes(self) -> int:
        return 4 + 12 + 2 * self.m

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "m_buckets": self.m,
            "k_hashes": self.k,
            "seed": self.seed,
            "count": self.count,
            "counters": hex_bytes(struct.pack(f"<{self.m}H", *self._counters)),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CountingBloomSummary":
        raw = unhex_bytes(payload.get("counters"), "counters")
        m = payload_int(payload, "m_buckets")
        k = payload_int(payload, "k_hashes")
        if m < 1 or len(raw) != 2 * m:
            raise SummaryError(
                "invalid counting-bloom payload: counters length does not "
                "match m_buckets"
            )
        if not 1 <= k <= 8 * len(raw):
            # Every probe walks k indices: an unbounded k hangs the reader.
            raise SummaryError(
                "invalid counting-bloom payload: k_hashes must lie in "
                "[1, the payload's bit count]"
            )
        return cls(
            array("H", struct.unpack(f"<{m}H", raw)),
            k,
            payload_int(payload, "seed", 0),
            payload_int(payload, "count", 0),
            payload_int(payload, "set_size"),
        )

    def may_contain(self, key: int) -> bool:
        counters = self._counters
        return all(counters[idx] > 0 for idx in self._hashes.indices(key))

    # Counters have no batched probe: keep the scalar walk.
    missing_from = Summary.missing_from

    def merge(self, other: "CountingBloomSummary") -> "CountingBloomSummary":
        """Counter-wise saturating sum: the multiset union's filter."""
        self._check_kind(other)
        if (self.m, self.k, self.seed) != (other.m, other.k, other.seed):
            raise SummaryError("filters must share (m, k, seed) to be merged")
        counters = array(
            "H",
            (
                min(_COUNTER_MAX, a + b)
                for a, b in zip(self._counters, other._counters)
            ),
        )
        ids, size = self._merged_local_ids(other)
        return CountingBloomSummary(
            counters, self.k, self.seed, self.count + other.count, size, ids
        )


@register_summary
class PartitionedBloomSummary(Summary):
    """One residue-class partition filter (§5.2's "scaling up" step).

    Params: ``rho`` (partition count), ``beta`` (this filter's
    residue), ``bits_per_element``, ``k_hashes``, ``seed``.  Covers
    only the keys whose mixed hash is ``≡ beta (mod rho)``
    (:meth:`covers`), and its Bloom filter holds those alone:
    :meth:`may_contain` answers True (unknown) for an uncovered key,
    and :meth:`missing_from` reports definite differences within the
    covered class only — further partitions pipeline over as separate
    summaries (``TransferSession.request_next_partition``).
    """

    kind = "partitioned_bloom"
    supports_membership = True
    supports_difference = True
    supports_estimate = True
    partial_coverage = True

    def __init__(
        self,
        bloom: BloomFilter,
        rho: int,
        beta: int,
        seed: int,
        member_count: int,
        set_size: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.bloom = bloom
        self.rho = rho
        self.beta = beta
        self.seed = seed
        #: Covered ids the filter summarises.
        self.member_count = member_count
        self.set_size = set_size
        self._local_ids = local_ids

    @staticmethod
    def _check_partition(rho: int, beta: int) -> None:
        if rho <= 0:
            raise SummaryError("partition count rho must be positive")
        if not 0 <= beta < rho:
            raise SummaryError("residue beta must lie in [0, rho)")

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
        cls._check_partition(rho, beta)
        pool = frozenset(ids)
        key_list = sorted(pool)
        members = [
            x for x, h in zip(key_list, mix64_batch(key_list, seed)) if h % rho == beta
        ]
        bloom = BloomFilter.for_elements(
            members, bits_per_element=bits_per_element, k_hashes=k_hashes, seed=seed
        )
        return cls(bloom, rho, beta, seed, len(members), len(pool), local_ids=pool)

    def covers(self, key: int) -> bool:
        """Whether this filter is authoritative for ``key`` at all."""
        return mix64(key, self.seed) % self.rho == self.beta

    def wire_bytes(self) -> int:
        return 4 + 12 + 8 + self.bloom.size_bytes()  # + (rho, beta) header

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "rho": self.rho,
            "beta": self.beta,
            "seed": self.seed,
            "member_count": self.member_count,
            "m_bits": self.bloom.m,
            "k_hashes": self.bloom.k,
            "bits": hex_bytes(self.bloom.to_bytes()),
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
        except ValueError as exc:
            raise SummaryError(f"invalid partitioned-bloom payload: {exc}") from exc
        rho, beta = payload_int(payload, "rho"), payload_int(payload, "beta")
        cls._check_partition(rho, beta)
        return cls(
            bloom, rho, beta, seed,
            payload_int(payload, "member_count", 0),
            payload_int(payload, "set_size"),
        )

    def may_contain(self, key: int) -> bool:
        # Uncovered keys are unknown — "may contain" is the sound answer.
        return not self.covers(key) or key in self.bloom

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """Definite differences within the covered residue class."""
        covered = [key for key in candidates if self.covers(key)]
        hits = self.bloom.contains_many(covered)
        return [key for key, hit in zip(covered, hits) if not hit]

    def estimate_difference(self, other: "Summary") -> float:
        """Extrapolate the covered class's difference to the whole set."""
        local = self._require_local("partitioned-bloom difference estimation")
        if not isinstance(other, PartitionedBloomSummary):
            raise SummaryError(
                f"cannot estimate against a {getattr(other, 'kind', '?')} summary"
            )
        covered = [key for key in local if other.covers(key)]
        if not covered:
            return clamped_symmetric_difference(
                float(min(self.set_size, other.set_size)),
                self.set_size,
                other.set_size,
            )
        missing = sum(1 for key in covered if key not in other.bloom)
        scale = len(local) / len(covered)
        i = len(local) - missing * scale
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


def _exact_filter(values: List[int], m_bits: int, seed: int) -> BloomFilter:
    """A Bloom filter of exactly ``m_bits`` bits over ``values``, with
    the hash count optimal for that load."""
    bloom = BloomFilter(m_bits, optimal_hash_count(m_bits, max(1, len(values))), seed)
    bloom.bulk_update(values)
    return bloom


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@register_summary
class ARTSummaryAdapter(Summary):
    """Approximate reconciliation tree (§5.3): Bloom-folded hash trie.

    Params: ``bits_per_element`` (total Bloom budget),
    ``leaf_bits_per_element`` (the leaf filter's slice; None = even
    split), ``seed`` (the agreed hash functions), ``correction``
    (search tolerance for internal false positives).  The node values
    of the builder's :class:`~repro.art.tree.ReconciliationTrie` fold
    into two Bloom filters, leaves apart from internal nodes so their
    accuracies can be traded (§5.3's fix for premature cut-offs), each
    sized from the exact bit budget so Figure 4's sweeps measure what
    they claim.  The summary answers :meth:`matches_internal` /
    :meth:`matches_leaf`, so :func:`~repro.art.search.find_difference`
    walks a trie against it: :meth:`missing_from` runs that ``O(d log
    n)`` search over the candidates' trie; :meth:`may_contain` probes
    the leaf filter with the key's value hash.  A local build keeps its
    :attr:`trie` (``None`` after wire reconstruction).
    """

    kind = "art"
    supports_membership = True
    supports_difference = True
    supports_estimate = True

    def __init__(
        self,
        leaf_filter: BloomFilter,
        internal_filter: BloomFilter,
        seed: int,
        bits_per_element: float,
        leaf_bits_per_element: float,
        correction: int,
        set_size: int,
        trie: Optional[ReconciliationTrie] = None,
        local_ids: Optional[frozenset] = None,
    ):
        self.leaf_filter = leaf_filter
        self.internal_filter = internal_filter
        self.seed = seed
        self.bits_per_element = bits_per_element
        self.leaf_bits_per_element = leaf_bits_per_element
        self.correction = correction
        self.set_size = set_size
        self.trie = trie
        self._local_ids = local_ids

    @staticmethod
    def _check_budget(bits_per_element: Any, leaf_bits_per_element: Any) -> None:
        if not _is_number(bits_per_element) or bits_per_element <= 0:
            raise SummaryError("bits_per_element must be a positive number")
        if not _is_number(leaf_bits_per_element) or not (
            0 < leaf_bits_per_element < bits_per_element
        ):
            raise SummaryError(
                "leaf bits must be positive and leave room for the internal filter"
            )

    @staticmethod
    def _check_correction(correction: int) -> None:
        if correction < 0:
            raise SummaryError("correction level must be non-negative")

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        bits_per_element: int = 8,
        leaf_bits_per_element: Optional[float] = None,
        seed: int = 0,
        correction: int = 1,
    ) -> "ARTSummaryAdapter":
        cls._check_correction(correction)
        if leaf_bits_per_element is None and _is_number(bits_per_element):
            leaf_bits_per_element = bits_per_element / 2
        cls._check_budget(bits_per_element, leaf_bits_per_element)
        pool = frozenset(ids)
        trie = ReconciliationTrie(pool, seed=seed)
        n = max(1, trie.size)
        leaf_bits = max(8, int(leaf_bits_per_element * n))
        internal_bits = max(8, int((bits_per_element - leaf_bits_per_element) * n))
        return cls(
            _exact_filter(trie.leaf_values(), leaf_bits, seed ^ 0x5EAF),
            _exact_filter(trie.internal_values(), internal_bits, seed ^ 0x137EE),
            seed,
            bits_per_element,
            leaf_bits_per_element,
            correction,
            len(pool),
            trie=trie,
            local_ids=pool,
        )

    def matches_internal(self, value: int) -> bool:
        """Bloom test of a node value against the internal-node filter."""
        return value in self.internal_filter

    def matches_leaf(self, value: int) -> bool:
        """Bloom test of a node value against the leaf filter."""
        return value in self.leaf_filter

    def wire_bytes(self) -> int:
        return (
            4 + 2 * 12 + self.leaf_filter.size_bytes()
            + self.internal_filter.size_bytes()
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "seed": self.seed,
            "bits_per_element": self.bits_per_element,
            "leaf_bits_per_element": self.leaf_bits_per_element,
            "correction": self.correction,
            "leaf": {
                "m_bits": self.leaf_filter.m,
                "k_hashes": self.leaf_filter.k,
                "seed": self.leaf_filter.seed,
                "bits": hex_bytes(self.leaf_filter.to_bytes()),
            },
            "internal": {
                "m_bits": self.internal_filter.m,
                "k_hashes": self.internal_filter.k,
                "seed": self.internal_filter.seed,
                "bits": hex_bytes(self.internal_filter.to_bytes()),
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
        if leaf_bpe is None and _is_number(bpe):
            leaf_bpe = bpe / 2
        cls._check_budget(bpe, leaf_bpe)
        correction = payload_int(payload, "correction", 1)
        cls._check_correction(correction)
        return cls(
            cls._filter_from(payload.get("leaf"), "leaf"),
            cls._filter_from(payload.get("internal"), "internal"),
            payload_int(payload, "seed", 0),
            bpe,
            leaf_bpe,
            correction,
            payload_int(payload, "set_size"),
        )

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"seed": self.seed, "correction": self.correction}

    def may_contain(self, key: int) -> bool:
        """Probe the leaf filter with the key's (seed-only) value hash."""
        return self.matches_leaf(value_hash(key, self.seed))

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """The paper's search: walk the candidates' trie against us."""
        trie = ReconciliationTrie(candidates, seed=self.seed)
        return find_difference(trie, self, correction=self.correction).differences

    def estimate_difference(self, other: "Summary") -> float:
        """Search our own (local) trie against the other summary."""
        self._check_kind(other)
        self._require_local("art difference estimation")
        assert isinstance(other, ARTSummaryAdapter) and self.trie is not None
        if self.seed != other.seed:
            raise SummaryError(
                "art summaries are only comparable under the same agreed hash seed"
            )
        stats = find_difference(self.trie, other, correction=other.correction)
        i = self.set_size - len(stats.differences)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


# ---------------------------------------------------------------------------
# Exact baselines (§5.1)
# ---------------------------------------------------------------------------


@register_summary
class CPISummary(Summary):
    """Characteristic-polynomial evaluations (Minsky-Trachtenberg-Zippel).

    Params: ``max_discrepancy`` (the bound ``d`` the sketch is sized
    for), ``seed`` (the agreed evaluation points).  ``d`` evaluations
    plus :data:`~repro.exact.cpi.VERIFY_POINTS` reserve ones, 8 bytes
    each, on the wire; :meth:`missing_from` recovers ``candidates - S``
    exactly — or raises :class:`~repro.exact.cpi.DiscrepancyExceeded`
    when the bound was too small, exactly as the protocol in [19]
    retries.
    """

    kind = "cpi"
    supports_difference = True
    supports_estimate = True
    exact = True

    def __init__(
        self,
        evaluations: List[int],
        verify_evaluations: List[int],
        set_size: int,
        max_discrepancy: int,
        seed: int,
        local_ids: Optional[frozenset] = None,
    ):
        self.evaluations = evaluations
        self.verify_evaluations = verify_evaluations
        self.set_size = set_size
        self.max_discrepancy = max_discrepancy
        self.seed = seed
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
            evaluations, verify = reconciler.evaluate(sorted(pool))
        except ValueError as exc:
            raise SummaryError(str(exc)) from exc
        return cls(evaluations, verify, len(pool), max_discrepancy, seed, pool)

    def _reconciler(self) -> CharacteristicPolynomialReconciler:
        return CharacteristicPolynomialReconciler(self.max_discrepancy, self.seed)

    @staticmethod
    def wire_bytes_for_bound(max_discrepancy: int) -> int:
        """Wire size of a summary sized for ``max_discrepancy``.

        :meth:`wire_bytes` reads it too, so reported-but-not-run cells
        (the ``summary_tradeoff`` scenario's "prohibitively large d"
        regime) can never drift from the cost a run cell would report.
        """
        return 4 + 8 * (max_discrepancy + VERIFY_POINTS) + 12

    def wire_bytes(self) -> int:
        return self.wire_bytes_for_bound(self.max_discrepancy)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "max_discrepancy": self.max_discrepancy,
            "seed": self.seed,
            "evaluations": list(self.evaluations),
            "verify_evaluations": list(self.verify_evaluations),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CPISummary":
        evaluations = payload_int_list(payload, "evaluations")
        verify = payload_int_list(payload, "verify_evaluations")
        max_discrepancy = payload_int(payload, "max_discrepancy")
        # The receiver's work is Θ(d³) in the bound: a bound the payload
        # does not carry evaluations for could stall it on one message.
        if max_discrepancy < 1 or len(evaluations) != max_discrepancy:
            raise SummaryError(
                "cpi payload needs max_discrepancy >= 1 and one evaluation "
                "per unit of it"
            )
        if len(verify) != VERIFY_POINTS:
            raise SummaryError(
                f"cpi payload needs {VERIFY_POINTS} verify_evaluations"
            )
        return cls(
            evaluations,
            verify,
            payload_int(payload, "set_size"),
            max_discrepancy,
            payload_int(payload, "seed", 0),
        )

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """Recover ``candidates - S`` exactly (raises past the bound)."""
        return sorted(self._reconciler().difference(self, candidates))

    def estimate_difference(self, other: "Summary") -> float:
        """Exact discrepancy, computed from our retained ids."""
        self._check_kind(other)
        local = self._require_local("cpi difference estimation")
        assert isinstance(other, CPISummary)
        ours_minus_theirs = other._reconciler().difference(other, local)
        i = len(local) - len(ours_minus_theirs)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


def _polynomial_hash_bits(n_ids: int) -> int:
    """The hash width ``poly(|S|) = |S|^3`` auto-sizing picks (§5.1)."""
    return min(64, max(8, 3 * (max(2, n_ids) - 1).bit_length()))


@register_summary
class HashSetSummaryAdapter(Summary):
    """Hashed-key set (§5.1): exact up to inverse-polynomial misses.

    Params: ``hash_bits`` (0 = the paper's ``poly(|S|)`` auto-sizing,
    ``|S|^3``), ``seed``.  Every key is mixed and truncated to
    ``hash_bits``; a key outside the set is missed only when its hash
    collides with one inside, probability ~ ``|S| / 2^hash_bits``.  Two
    hash sets compare directly, so estimation works wire-to-wire
    without local ids.
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
        hashes: Iterable[int],
        hash_bits: int,
        seed: int,
        set_size: int,
        local_ids: Optional[frozenset] = None,
    ):
        if not 1 <= hash_bits <= 64:
            raise SummaryError("hash width must be between 1 and 64 bits")
        self.hashes = frozenset(hashes)
        self.hash_bits = hash_bits
        self.seed = seed
        self.set_size = set_size
        self._local_ids = local_ids

    def _hash(self, key: int) -> int:
        return mix64(key, self.seed) >> (64 - self.hash_bits)

    @classmethod
    def build(
        cls, ids: Iterable[int], hash_bits: int = 0, seed: int = 0,
    ) -> "HashSetSummaryAdapter":
        pool = frozenset(ids)
        out = cls._of(pool, hash_bits or _polynomial_hash_bits(len(pool)), seed)
        out._requested_bits = hash_bits
        return out

    @classmethod
    def _of(cls, pool: frozenset, bits: int, seed: int) -> "HashSetSummaryAdapter":
        out = cls((), bits, seed, len(pool), pool)
        out.hashes = frozenset(out._hash(x) for x in pool)
        return out

    def absorb(self, new_ids: Iterable[int]) -> "HashSetSummaryAdapter":
        pool = self._require_local("incremental hash-set update")
        if self._requested_bits is None:
            return super().absorb(new_ids)
        fresh = frozenset(new_ids) - pool
        if not fresh:
            return self
        union = pool | fresh
        bits = self._requested_bits or _polynomial_hash_bits(len(union))
        if bits == self.hash_bits:
            hashes = self.hashes | {self._hash(x) for x in fresh}
            out = HashSetSummaryAdapter(hashes, bits, self.seed, len(union), union)
        else:
            out = self._of(union, bits, self.seed)
        out._requested_bits = self._requested_bits
        return out

    def wire_bytes(self) -> int:
        # + a 2-byte hash-width header
        return 4 + 2 + ((self.hash_bits + 7) // 8) * len(self.hashes)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "set_size": self.set_size,
            "hash_bits": self.hash_bits,
            "seed": self.seed,
            "hashes": sorted(self.hashes),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "HashSetSummaryAdapter":
        return cls(
            payload_int_list(payload, "hashes"),
            payload_int(payload, "hash_bits"),
            payload_int(payload, "seed", 0),
            payload_int(payload, "set_size"),
        )

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"hash_bits": self.hash_bits, "seed": self.seed}

    def _check_comparable(self, other: "HashSetSummaryAdapter") -> None:
        self._check_kind(other)
        if (self.hash_bits, self.seed) != (other.hash_bits, other.seed):
            raise SummaryError(
                "hash-set summaries are only comparable with identical "
                "hash width and seed"
            )

    def may_contain(self, key: int) -> bool:
        return self._hash(key) in self.hashes

    def merge(self, other: "HashSetSummaryAdapter") -> "HashSetSummaryAdapter":
        self._check_comparable(other)
        hashes = self.hashes | other.hashes
        ids, size = self._merged_local_ids(other, fallback=len(hashes))
        return HashSetSummaryAdapter(hashes, self.hash_bits, self.seed, size, ids)

    def estimate_difference(self, other: "HashSetSummaryAdapter") -> float:
        """Hash sets compare directly — no local ids needed."""
        self._check_comparable(other)
        i = len(self.hashes & other.hashes)
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
