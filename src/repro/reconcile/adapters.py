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
``bloom``                 §5.2        ``m`` bits probed by ``k`` hashes
``partitioned_bloom``     §5.2        a ``bloom`` card of one residue class
``art``                   §5.3        leaf and internal ``bloom`` cards
                                      (:mod:`repro.art` trie and search)
``cpi``                   §5.1 [19]   characteristic-polynomial evaluations
                                      (:mod:`repro.exact.cpi` reconciler)
``hashset``               §5.1        the set of truncated key hashes
``wholeset``              §5.1        the keys themselves
========================  ==========  ===========================================

Builds go through the vectorised kernels in :mod:`repro.hashing.batch`
wherever one exists, so sweeping summary kinds over large working sets
stays benchmarkable.  Each class's wire form is its ``WIRE`` layout
(:mod:`repro.reconcile.base`): a 4-byte set-size header, the
structure's own bytes and its parameter headers — the byte accounting
the protocol session charges; parameters agreed off-line cost nothing.
"""

import math
import random
from array import array
from collections import deque
from itertools import chain
from operator import eq
from types import SimpleNamespace
from typing import (
    Any,
    Collection,
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
from repro.hashing import batch as _batch
from repro.hashing.batch import UNSET, mix64_batch, permutation_minima_many
from repro.hashing.families import BloomHashes
from repro.hashing.mix import mix64
from repro.hashing.permutations import PermutationFamily
from repro.reconcile.base import (
    BITS,
    INT,
    INT_LIST,
    NUMBER,
    ROW,
    SET_SIZE,
    Field,
    Nested,
    Summary,
    SummaryError,
    Width,
    clamped_symmetric_difference,
    wire_size,
)
from repro.reconcile.registry import register_summary
from repro.seeding import choice

#: Default key universe, matching :data:`repro.delivery.working_set.
#: DEFAULT_KEY_UNIVERSE` (kept literal to avoid a delivery import here).
DEFAULT_UNIVERSE = 1 << 32

#: Widest min-wise universe: every minimum below it fits the 8 bytes
#: the card's ``WIRE`` layout charges per entry (one int64).
MAX_MINWISE_UNIVERSE = 1 << 63


@lru_cache(maxsize=32)
def _shared_family(entries: int, universe: int, seed: int) -> PermutationFamily:
    """The min-wise permutation family for one parameter triple.

    :class:`PermutationFamily` is a pure function of its arguments (the
    paper fixes families "universally off-line"), and building one
    draws 128 modular inverses — far too costly to repeat per card
    when a large swarm refreshes thousands of cards per epoch.
    """
    return PermutationFamily(entries, universe, seed=seed)


def intersection_from_resemblance(r: float, size_a: int, size_b: int) -> float:
    """Estimated ``|A ∩ B|`` from resemblance ``r = |A ∩ B| / |A ∪ B|``
    and the two set sizes: ``i = r (|A| + |B|) / (1 + r)``, by
    inclusion-exclusion (§4)."""
    return r * (size_a + size_b) / (1.0 + r) if r > 0.0 else 0.0


def containment_from_resemblance(r: float, size_a: int, size_b: int) -> float:
    """Estimated containment ``|A ∩ B| / |B|`` — the "correlation" axis
    of Figures 5-8 — from resemblance ``r`` and the two set sizes.

    Returns 0 for an empty ``B`` (nothing to contain).  The result is
    clamped to ``[0, 1]``, since sampling noise in ``r`` can push the
    raw algebra slightly outside.
    """
    if size_b == 0:
        return 0.0
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"resemblance must lie in [0, 1], got {r}")
    if size_a < 0 or size_b < 0:
        raise ValueError("set sizes must be non-negative")
    c = intersection_from_resemblance(r, size_a, size_b) / size_b
    return min(1.0, max(0.0, c))


# ---------------------------------------------------------------------------
# Sketches (§4) — calling cards: estimate, never search
# ---------------------------------------------------------------------------


@register_summary
class MinwiseSummary(Summary):
    """Min-wise sketch: per-permutation minima (the paper's preferred card).

    Params: ``entries`` (permutation count, 128 ≈ the 1KB card),
    ``universe`` (key range, at most 2^63 so a minimum fits the 8 bytes
    :meth:`wire_bytes` charges for it), ``seed`` (the universally
    agreed family, so the three cost nothing on the wire).
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
    supports_estimate = True
    supports_incremental = True
    WIRE = (
        SET_SIZE,
        Field("entries", "entries", INT, low=1),
        Field("universe", "universe", INT, low=1, high=MAX_MINWISE_UNIVERSE),
        Field("seed", "seed", INT),
        Field("minima", "row", ROW, low=0, high="universe", length="entries", wire=8),
    )

    def __init__(
        self, row: array, set_size: int, entries: int, universe: int, seed: int
    ):
        self._row = row
        self.set_size = set_size
        self.entries = entries
        self.universe = universe
        self.seed = seed

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
        pass (:func:`~repro.hashing.batch.permutation_minima_many`).

        ``set_size`` counts the distinct ids given, before the fold.  A
        ``set`` or ``frozenset`` counts them itself and is read in place
        (a working set hands over its own); anything else is copied into
        one first."""
        if universe > MAX_MINWISE_UNIVERSE:
            raise SummaryError("min-wise universe must be at most 2**63")
        family = _shared_family(entries, universe, seed)
        # ``universe.__rmod__`` is ``i % universe``, without a Python
        # frame per id.
        fold = universe.__rmod__
        pools = [
            ids if isinstance(ids, (set, frozenset)) else frozenset(ids)
            for ids in id_sets
        ]
        rows = permutation_minima_many(
            family, ((map(fold, pool), None) for pool in pools)
        )
        return [
            cls(row, len(pool), entries, universe, seed)
            for pool, row in zip(pools, rows)
        ]

    def absorb(self, new_ids: Iterable[int]) -> "MinwiseSummary":
        """Coordinate-wise min against the new ids' minima (min is
        associative, so this is exactly the union's sketch); ``new_ids``
        are ids not yet summarised, each once, and add to ``set_size``."""
        return next(self.absorb_many([(self, new_ids)]))

    @classmethod
    def absorb_many(
        cls, folds: Iterable[Tuple["MinwiseSummary", Iterable[int]]]
    ) -> Iterator["MinwiseSummary"]:
        """``card.absorb(new_ids)`` for each ``(card, new_ids)`` pair,
        in order, in one kernel pass over cards of one family; a card
        given no ids comes back as itself.

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
        queue: Deque[Tuple["MinwiseSummary", int]] = deque()

        def minima_folds():
            for card, new_ids in chain([head], folds):
                fresh = list(new_ids)
                queue.append((card, len(fresh)))
                if fresh:
                    first._check_family(card)
                    yield map(card.universe.__rmod__, fresh), card._row

        for row in permutation_minima_many(family, minima_folds()):
            card, added = queue.popleft()
            while not added:
                yield card
                card, added = queue.popleft()
            yield cls(
                row, card.set_size + added, card.entries, card.universe, card.seed
            )
        for card, _added in queue:
            yield card

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
        """Coordinate-wise minimum — the sketch of the union (§4).

        Its ``set_size`` is the larger operand's: a lower bound on the
        union's, zero only when both are, which is all join planning
        reads of it."""
        self._check_family(other)
        merged = array(
            "q",
            [
                b if a == UNSET else (a if b == UNSET or a < b else b)
                for a, b in zip(self._row, other._row)
            ],
        )
        return MinwiseSummary(
            merged, max(self.set_size, other.set_size),
            self.entries, self.universe, self.seed,
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

    @property
    def row(self) -> array:
        """The card's own packed buffer, not a copy.  Read it; never
        write it."""
        return self._row

    def rows_of(self, cards: Iterable["MinwiseSummary"]) -> List[array]:
        """``[card.row for card in cards]``, each card first checked to
        be a min-wise card of this card's family (a stranger raises
        :class:`SummaryError`): the rows :func:`resemblance_rows`
        compares, with no copy."""
        family = (self.entries, self.universe, self.seed)
        rows = []
        for card in cards:
            if type(card) is not MinwiseSummary or (
                card.entries, card.universe, card.seed
            ) != family:
                self._check_family(card)  # raises on a stranger
            rows.append(card._row)
        return rows

    def estimate_difference(
        self, other: "MinwiseSummary", ids: Optional[Collection[int]] = None
    ) -> float:
        r = self.estimate_resemblance(other)
        i = intersection_from_resemblance(r, self.set_size, other.set_size)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


def resemblance_rows(mine: array, rows: Sequence[array]) -> List[float]:
    """The fraction of positions at which each of ``rows`` equals
    ``mine``: the estimate kernel of min-wise cards of one family.

    ``mine`` must be the row of a card over a non-empty set — every
    position set, so an :data:`~repro.hashing.batch.UNSET` position of a
    row never matches, and an all-``UNSET`` row scores 0.0.  Each value
    is then ``estimate_resemblance`` of ``mine``'s card against the
    row's, bit for bit.  With numpy and more than one row, the rows'
    buffers are joined (one memcpy each, no boxing) and compared in one
    array operation; otherwise position by position.
    """
    entries = len(mine)
    np = _batch._numpy() if len(rows) > 1 else None
    if np is None:
        return [sum(map(eq, mine, row)) / entries for row in rows]
    stacked = np.frombuffer(b"".join(rows), dtype=np.int64)
    matches = np.count_nonzero(
        stacked.reshape(len(rows), entries) == np.frombuffer(mine, dtype=np.int64),
        axis=1,
    )
    return [m / entries for m in matches.tolist()]


class MinwiseStack:
    """Min-wise cards of one family kept as one int64 matrix, and the
    greedy cover a join planner runs over them
    (:func:`repro.delivery.orchestrator.select_senders`): the screen and
    every round are one array operation instead of a restack per round.

    A row is a copy of a card's buffer, stacked by :meth:`append` with
    the candidate's reported size and key; it holds while the card it
    copied is current (a join wave is one scheduler event).  A card
    that is not a :class:`MinwiseSummary` of the first card's family
    unstacks the stack: :meth:`greedy_cover` then answers None, as it
    does without numpy, and the caller compares card by card.
    """

    def __init__(self) -> None:
        self._buffer: Optional[bytearray] = bytearray()
        self._family: Optional[Tuple[int, int, int]] = None
        self._card_sizes: List[int] = []
        self._sizes: List[int] = []
        self._keys: List[Any] = []

    @staticmethod
    def _family_of(card: Any) -> Optional[Tuple[int, int, int]]:
        if type(card) is not MinwiseSummary:
            return None
        return (card.entries, card.universe, card.seed)

    def append(self, card: Any, size: int, key: Any) -> None:
        """Stack ``card``'s row after the others, with ``size`` (the
        set size its owner reports) and ``key`` (rows sharing a key
        leave the cover together)."""
        if self._buffer is None:
            return
        family = self._family_of(card)
        if not self._keys:
            self._family = family
        if family is None or family != self._family:
            self._buffer = None
            return
        self._buffer += card._row
        self._card_sizes.append(card.set_size)
        self._sizes.append(size)
        self._keys.append(key)

    def greedy_cover(
        self,
        card: Any,
        size: int,
        picks: int,
        min_gain: float,
        identical: float,
    ) -> Optional[Tuple[List[int], List[Tuple[int, float]], float]]:
        """Greedy max-coverage from ``card`` (a set of ``size`` ids).

        First every row whose resemblance to ``card`` is at least
        ``identical`` and whose size is at most ``size`` is screened
        out.  Then, up to ``picks`` times, the row adding the most
        estimated ids to the cover — ``|C ∪ S| - |C|`` with ``|C ∪ S| =
        (|C| + |S|) / (1 + r)`` — is picked while that gain is at least
        ``min_gain``: the cover grows by it, its card is lowered to the
        elementwise minimum with the row, and every row with the row's
        key leaves.  Returns ``(screened rows, [(row, gain)], cover
        size)``, or None when ``card`` cannot be compared by array.

        The per-card loop's answer, float for float: a resemblance is
        ``matches / entries`` with :meth:`MinwiseSummary.
        estimate_resemblance`'s two-empty-cards rule, the gains
        take the loop's IEEE operations in its order, ``argmax`` keeps
        the first maximum as a strict ``>`` does, and the minimum read
        as ``uint64`` (where :data:`UNSET`, -1, is the largest value) is
        exactly :meth:`MinwiseSummary.merge`.
        """
        np = _batch._numpy()
        if (
            np is None
            or self._buffer is None
            or not self._keys
            or self._family_of(card) != self._family
        ):
            return None
        count, entries = len(self._keys), self._family[0]
        # A view of the buffer: it must be gone before the next append.
        rows = np.frombuffer(self._buffer, dtype=np.int64).reshape(count, entries)
        sizes = np.array(self._sizes, dtype=np.float64)
        cover = np.frombuffer(card._row, dtype=np.int64)
        cover_card_size = card.set_size  # the merged card's set_size
        if cover_card_size == 0:
            empty_cards = np.array(self._card_sizes) == 0

        def resemblances():
            r = ((rows == cover) & (cover != UNSET)).sum(axis=1) / entries
            if cover_card_size == 0:
                r[empty_cards] = 0.0
            return r

        live = np.ones(count, dtype=bool)
        screened = [
            i
            for i in np.flatnonzero(resemblances() >= identical).tolist()
            if self._sizes[i] <= size
        ]
        live[screened] = False
        chosen: List[Tuple[int, float]] = []
        cover_size = float(size)
        while len(chosen) < picks:
            remaining = np.flatnonzero(live)
            if not len(remaining):
                break
            r = resemblances()[remaining]
            gains = (cover_size + sizes[remaining]) / (1.0 + r) - cover_size
            pick = int(np.argmax(gains))
            gain = float(gains[pick])
            if gain < min_gain:
                break
            best = int(remaining[pick])
            chosen.append((best, gain))
            cover_size += gain
            cover = np.minimum(cover.view(np.uint64), rows[best].view(np.uint64))
            cover = cover.view(np.int64)
            cover_card_size = max(cover_card_size, self._card_sizes[best])
            key = self._keys[best]
            live[best] = False
            if self._keys.count(key) > 1:
                live[[i for i in remaining.tolist() if self._keys[i] == key]] = False
        return screened, chosen, cover_size


@register_summary
class ModKSummary(Summary):
    """Mod-k sample: elements whose mixed key is ``0 (mod modulus)``.

    Params: ``modulus`` (expected sample = n/modulus), ``seed``,
    ``max_elements`` (bottom-k truncation, packet limits).
    """

    kind = "modk"
    supports_estimate = True
    WIRE = (
        SET_SIZE,
        Field("modulus", "modulus", INT, low=1),
        Field("seed", "seed", INT),
        Field("sample", "sample", INT_LIST, wire=8),
    )

    def __init__(
        self,
        sample: Iterable[int],
        set_size: int,
        modulus: int,
        seed: int,
    ):
        self.sample = frozenset(sample)
        self.set_size = set_size
        self.modulus = modulus
        self.seed = seed

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
        return cls(sample, len(pool), modulus, seed)

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"modulus": self.modulus, "seed": self.seed}

    def _check_comparable(self, other: "ModKSummary") -> None:
        self._check_kind(other)
        if (self.modulus, self.seed) != (other.modulus, other.seed):
            raise SummaryError(
                "mod-k summaries are only comparable with identical modulus and seed"
            )

    def estimate_difference(
        self, other: "ModKSummary", ids: Optional[Collection[int]] = None
    ) -> float:
        self._check_comparable(other)
        union = len(self.sample | other.sample)
        r = len(self.sample & other.sample) / union if union else 0.0
        i = intersection_from_resemblance(r, self.set_size, other.set_size)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class RandomSampleSummary(Summary):
    """``k`` random keys with replacement (§4's first, simplest card).

    Params: ``k`` (sample size), ``seed`` (deterministic draw).  Two
    samples cannot be compared with each other (the paper's noted
    drawback): estimation looks the other's sample up in the ids this
    one was built from, which the caller passes.
    """

    kind = "random_sample"
    supports_estimate = True
    WIRE = (
        SET_SIZE,
        Field("seed", "seed", INT),
        Field("sample", "sample", INT_LIST, wire=8),
    )

    def __init__(
        self,
        sample: List[int],
        set_size: int,
        seed: int,
    ):
        self.sample = list(sample)
        if set_size == 0 and self.sample:
            raise SummaryError("an empty set cannot produce a non-empty sample")
        self.set_size = set_size
        self.seed = seed

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
        return cls(sample, len(pool), seed)

    def intersection(self, ids: Collection[int]) -> float:
        """The share of sampled keys found in ``ids``, times ``set_size``
        (0.0 without observations: the size-imbalance floor)."""
        if not self.sample:
            return 0.0
        hits = sum(1 for key in self.sample if key in ids)
        return hits / len(self.sample) * self.set_size

    def estimate_difference(
        self, other: "RandomSampleSummary", ids: Optional[Collection[int]] = None
    ) -> float:
        """Look ``other``'s sampled keys up in ``ids``, our own set."""
        self._check_kind(other)
        local = self._ids_for_estimate(ids)
        return clamped_symmetric_difference(
            other.intersection(local), self.set_size, other.set_size
        )


# ---------------------------------------------------------------------------
# Searchable summaries (§5.2-5.3) — membership and difference search
# ---------------------------------------------------------------------------


def false_positive_rate(m_bits: int, n_elements: int, k_hashes: int) -> float:
    """The paper's false-positive formula ``f = (1 - e^{-kn/m})^k``.

    Section 5.2's working points fall out of it: four bits per element
    and three hashes give 14.7 %, eight bits and five hashes 2.2 %.
    """
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


#: A Bloom filter's own fields: its ``bits`` hold ``m_bits`` bits, and
#: ``m``, ``k`` and the seed travel in a 12-byte header.
_FILTER_FIELDS = (
    Field("m_bits", "m", INT, low=1, wire=4),
    Field("k_hashes", "k", INT, low=1, wire=4),
    Field("seed", "seed", INT, wire=4),
    Field("bits", "bits", BITS, length="m", wire=1),
)


@register_summary
class BloomSummary(Summary):
    """Bloom filter of the working set (§5.2, the searchable default).

    Params: ``bits_per_element`` (``m = max(8, bits_per_element * n)``
    bits), ``k_hashes`` (None = :func:`optimal_hash_count`), ``seed``.
    The card holds its ``m`` bits in a bytearray, probed by ``k``
    double-hashed functions (:class:`~repro.hashing.families.
    BloomHashes`).  Insertion and :meth:`missing_from` share the
    :func:`~repro.hashing.batch.bloom_index_matrix` kernel (a scalar
    loop without numpy), so they never disagree on a probe position.
    The ``partitioned_bloom`` and ``art`` kinds hold their filters as
    cards of this class.
    """

    kind = "bloom"
    supports_membership = True
    supports_difference = True
    supports_estimate = True
    WIRE = (SET_SIZE, *_FILTER_FIELDS, Field("count", "count", INT, low=0))

    def __init__(
        self,
        m: int,
        k: int,
        seed: int = 0,
        bits: Optional[bytearray] = None,
        count: int = 0,
        set_size: int = 0,
    ):
        self._hashes = BloomHashes(k, m, seed)  # refuses k < 1 and m < 1
        self.m = m
        self.k = k
        self.seed = seed
        self.bits = bytearray((m + 7) // 8) if bits is None else bits
        if k > 8 * len(self.bits):
            # Every probe walks k indices: an unbounded k hangs the reader.
            raise SummaryError("k_hashes must lie in [1, the filter's bit count]")
        #: Insertions counted in.
        self.count = count
        self.set_size = set_size

    @classmethod
    def build(
        cls,
        ids: Iterable[int],
        bits_per_element: int = 8,
        k_hashes: Optional[int] = None,
        seed: int = 0,
    ) -> "BloomSummary":
        pool = frozenset(ids)
        n = max(1, len(pool))
        m = max(8, bits_per_element * n)
        k = k_hashes if k_hashes is not None else optimal_hash_count(m, n)
        card = cls(m, k, seed, set_size=len(pool))
        card._insert(sorted(pool))
        return card

    def _insert(self, keys: List[int]) -> None:
        """Set every probe bit of ``keys`` (bit-OR is order free)."""
        rows = _batch.bloom_index_matrix(self._hashes, keys)
        if rows is None:
            bits = self.bits
            for key in keys:
                for idx in self._hashes.indices(key):
                    bits[idx >> 3] |= 1 << (idx & 7)
        else:
            # Unbuffered scatter-OR straight into the byte array —
            # duplicate probe positions combine exactly like the
            # scalar loop (OR is idempotent).
            np = _batch._numpy()
            flat = rows.ravel()
            arr = np.frombuffer(self.bits, dtype=np.uint8)
            np.bitwise_or.at(
                arr,
                (flat >> np.uint64(3)).astype(np.int64),
                np.left_shift(
                    np.uint8(1), (flat & np.uint64(7)).astype(np.uint8)
                ),
            )
        self.count += len(keys)

    def may_contain(self, key: int) -> bool:
        bits = self.bits
        return all(
            bits[idx >> 3] & (1 << (idx & 7)) for idx in self._hashes.indices(key)
        )

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """The :meth:`may_contain` walk, batched: the per-refresh kernel
        of every ``/BF`` strategy.

        The numpy path probes every ``(key, hash)`` index against the
        unpacked bit array in one pass (a view of the card's bytes,
        indexed by the uint64 probe matrix as it comes).
        """
        pool = list(candidates)
        rows = _batch.bloom_index_matrix(self._hashes, pool)
        if rows is None:
            return [x for x in pool if not self.may_contain(x)]
        np = _batch._numpy()
        bits = np.unpackbits(
            np.frombuffer(self.bits, dtype=np.uint8), bitorder="little"
        )
        hits = bits[rows].all(axis=1).tolist()
        return [x for x, hit in zip(pool, hits) if not hit]


#: A ``bloom`` card as the ``partitioned_bloom`` and ``art`` kinds carry it.
_FILTER = Nested(BloomSummary, _FILTER_FIELDS)


@register_summary
class PartitionedBloomSummary(Summary):
    """One residue-class partition filter (§5.2's "scaling up" step).

    Params: ``rho`` (partition count), ``beta`` (this filter's
    residue), ``bits_per_element``, ``k_hashes``, ``seed``.  Covers
    only the keys whose mixed hash is ``≡ beta (mod rho)``
    (:meth:`covers`), and its ``bloom`` card holds those alone:
    :meth:`may_contain` answers True (unknown) for an uncovered key,
    and :meth:`missing_from` reports definite differences within the
    covered class only; a session ships this one partition, and the
    other residues would travel as separate summaries.
    """

    kind = "partitioned_bloom"
    supports_membership = True
    supports_difference = True
    supports_estimate = True
    partial_coverage = True
    #: The filter's fields sit beside the partition header, its seed
    #: the partition's.
    WIRE = (
        SET_SIZE,
        Field("rho", "rho", INT, wire=4),
        Field("beta", "beta", INT, wire=4),
        Field("member_count", "member_count", INT, low=0),
        Field("", "bloom", _FILTER),
    )

    def __init__(
        self,
        bloom: BloomSummary,
        rho: int,
        beta: int,
        member_count: int,
        set_size: int,
    ):
        self._check_partition(rho, beta)
        self.bloom = bloom
        self.rho = rho
        self.beta = beta
        self.seed = bloom.seed
        #: Covered ids the filter summarises.
        self.member_count = member_count
        self.set_size = set_size

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
        bloom = BloomSummary.build(members, bits_per_element, k_hashes, seed)
        return cls(bloom, rho, beta, len(members), len(pool))

    def covers(self, key: int) -> bool:
        """Whether this filter is authoritative for ``key`` at all."""
        return mix64(key, self.seed) % self.rho == self.beta

    def may_contain(self, key: int) -> bool:
        # Uncovered keys are unknown — "may contain" is the sound answer.
        return not self.covers(key) or self.bloom.may_contain(key)

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """Definite differences within the covered residue class."""
        return self.bloom.missing_from(key for key in candidates if self.covers(key))


def _exact_filter(values: List[int], m_bits: int, seed: int) -> BloomSummary:
    """A Bloom filter of exactly ``m_bits`` bits over ``values``, with
    the hash count optimal for that load."""
    card = BloomSummary(m_bits, optimal_hash_count(m_bits, max(1, len(values))), seed)
    card._insert(values)
    return card


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
    the leaf filter with the key's value hash.  The builder's trie is
    not kept: a search rebuilds the candidates' own.
    """

    kind = "art"
    supports_membership = True
    supports_difference = True
    supports_estimate = True
    WIRE = (
        SET_SIZE,
        Field("seed", "seed", INT),
        Field("bits_per_element", "bits_per_element", NUMBER),
        Field("leaf_bits_per_element", "leaf_bits_per_element", NUMBER),
        Field("correction", "correction", INT),
        Field("leaf", "leaf_filter", _FILTER),
        Field("internal", "internal_filter", _FILTER),
    )

    def __init__(
        self,
        leaf_filter: BloomSummary,
        internal_filter: BloomSummary,
        seed: int,
        bits_per_element: float,
        leaf_bits_per_element: float,
        correction: int,
        set_size: int,
    ):
        self._check_params(bits_per_element, leaf_bits_per_element, correction)
        self.leaf_filter = leaf_filter
        self.internal_filter = internal_filter
        self.seed = seed
        self.bits_per_element = bits_per_element
        self.leaf_bits_per_element = leaf_bits_per_element
        self.correction = correction
        self.set_size = set_size

    @staticmethod
    def _check_params(
        bits_per_element: Any, leaf_bits_per_element: Any, correction: int
    ) -> None:
        """The bit budget and the search tolerance, as build and decode
        both take them."""
        if not _is_number(bits_per_element) or bits_per_element <= 0:
            raise SummaryError("bits_per_element must be a positive number")
        if not _is_number(leaf_bits_per_element) or not (
            0 < leaf_bits_per_element < bits_per_element
        ):
            raise SummaryError(
                "leaf bits must be positive and leave room for the internal filter"
            )
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
        if leaf_bits_per_element is None and _is_number(bits_per_element):
            leaf_bits_per_element = bits_per_element / 2
        cls._check_params(bits_per_element, leaf_bits_per_element, correction)
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
        )

    def matches_internal(self, value: int) -> bool:
        """Bloom test of a node value against the internal-node filter."""
        return self.internal_filter.may_contain(value)

    def matches_leaf(self, value: int) -> bool:
        """Bloom test of a node value against the leaf filter."""
        return self.leaf_filter.may_contain(value)

    def compatible_build_params(self) -> Dict[str, Any]:
        return {"seed": self.seed, "correction": self.correction}

    def may_contain(self, key: int) -> bool:
        """Probe the leaf filter with the key's (seed-only) value hash."""
        return self.matches_leaf(value_hash(key, self.seed))

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """The paper's search: walk the candidates' trie against us."""
        trie = ReconciliationTrie(candidates, seed=self.seed)
        return find_difference(trie, self, correction=self.correction).differences


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
    WIRE = (
        SET_SIZE,
        Field("max_discrepancy", "max_discrepancy", INT, low=1, wire=4),
        Field("seed", "seed", INT, wire=8),
        # The receiver's work is Θ(d³) in the bound: a bound the payload
        # does not carry evaluations for could stall it on one message.
        Field("evaluations", "evaluations", INT_LIST, length="max_discrepancy", wire=8),
        Field("verify_evaluations", "verify_evaluations", INT_LIST,
              length=VERIFY_POINTS, wire=8),
    )

    def __init__(
        self,
        evaluations: List[int],
        verify_evaluations: List[int],
        set_size: int,
        max_discrepancy: int,
        seed: int,
    ):
        self.evaluations = evaluations
        self.verify_evaluations = verify_evaluations
        self.set_size = set_size
        self.max_discrepancy = max_discrepancy
        self.seed = seed

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
        return cls(evaluations, verify, len(pool), max_discrepancy, seed)

    def _reconciler(self) -> CharacteristicPolynomialReconciler:
        return CharacteristicPolynomialReconciler(self.max_discrepancy, self.seed)

    @classmethod
    def wire_bytes_for_bound(cls, max_discrepancy: int) -> int:
        """Wire size of a summary sized for ``max_discrepancy``: the
        ``WIRE`` layout priced from the bound alone, as :meth:`wire_bytes`
        prices a built summary, so reported-but-not-run cells (the
        ``summary_tradeoff`` scenario's "prohibitively large d" regime)
        can never drift from the cost a run cell would report.
        """
        return wire_size(cls.WIRE, SimpleNamespace(max_discrepancy=max_discrepancy))

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """Recover ``candidates - S`` exactly (raises past the bound)."""
        return sorted(self._reconciler().difference(self, candidates))


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
    hash sets compare directly, so estimation reads no ids.
    """

    kind = "hashset"
    supports_membership = True
    supports_difference = True
    supports_estimate = True
    WIRE = (
        SET_SIZE,
        Field("hash_bits", "hash_bits", INT, wire=2),
        Field("seed", "seed", INT),
        Field("hashes", "hashes", INT_LIST, wire=Width("hash_bits")),
    )

    def __init__(self, hashes: Iterable[int], hash_bits: int, seed: int, set_size: int):
        if not 1 <= hash_bits <= 64:
            raise SummaryError("hash width must be between 1 and 64 bits")
        self.hashes = frozenset(hashes)
        self.hash_bits = hash_bits
        self.seed = seed
        self.set_size = set_size

    def _hash(self, key: int) -> int:
        return mix64(key, self.seed) >> (64 - self.hash_bits)

    @classmethod
    def build(
        cls, ids: Iterable[int], hash_bits: int = 0, seed: int = 0,
    ) -> "HashSetSummaryAdapter":
        pool = frozenset(ids)
        out = cls((), hash_bits or _polynomial_hash_bits(len(pool)), seed, len(pool))
        out.hashes = frozenset(out._hash(x) for x in pool)
        return out

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

    def estimate_difference(
        self, other: "HashSetSummaryAdapter", ids: Optional[Collection[int]] = None
    ) -> float:
        """Hash sets compare directly — ``ids`` is not read."""
        self._check_comparable(other)
        i = len(self.hashes & other.hashes)
        return clamped_symmetric_difference(i, self.set_size, other.set_size)


@register_summary
class WholeSetSummary(Summary):
    """Explicit key transfer — the trivial exact baseline (§5.1).

    Params: ``key_bits`` (wire width per key).  The ids *are* the
    payload, so membership, difference and estimate are exact; the cost is
    the ``O(|S| log u)`` wire size everything else exists to avoid.
    """

    kind = "wholeset"
    supports_membership = True
    supports_difference = True
    supports_estimate = True
    exact = True
    #: Keys are packed: a 12-bit key width really costs 1.5 B/key.
    WIRE = (
        SET_SIZE,
        Field("key_bits", "key_bits", INT),
        Field("ids", "ids", INT_LIST, wire=Width("key_bits", packed=True)),
    )

    def __init__(self, ids: Iterable[int], key_bits: int, set_size: int):
        if not 8 <= key_bits <= 64:
            raise SummaryError("key width must be between 8 and 64 bits")
        self.ids = frozenset(ids)
        if set_size != len(self.ids):
            raise SummaryError("set_size must count the distinct ids")
        self.key_bits = key_bits
        self.set_size = set_size

    @classmethod
    def build(
        cls, ids: Iterable[int], key_bits: int = 64,
    ) -> "WholeSetSummary":
        pool = frozenset(ids)
        return cls(pool, key_bits, len(pool))

    def may_contain(self, key: int) -> bool:
        return key in self.ids

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        return [key for key in candidates if key not in self.ids]

    def estimate_difference(
        self, other: "WholeSetSummary", ids: Optional[Collection[int]] = None
    ) -> float:
        self._check_kind(other)
        return float(len(self.ids ^ other.ids))


__all__ = [
    "DEFAULT_UNIVERSE",
    "containment_from_resemblance",
    "false_positive_rate",
    "intersection_from_resemblance",
    "optimal_hash_count",
    "MinwiseSummary",
    "MinwiseStack",
    "resemblance_rows",
    "ModKSummary",
    "RandomSampleSummary",
    "BloomSummary",
    "PartitionedBloomSummary",
    "ARTSummaryAdapter",
    "CPISummary",
    "HashSetSummaryAdapter",
    "WholeSetSummary",
]
