"""A peer's working set and everything derived from it.

Section 3's framing: sketches are an end-system's lightweight calling
card; searchable summaries (Bloom filter, ART) cost more but enable
fine-grained reconciliation.  :class:`WorkingSet` owns the symbol-id set
and builds all of them with consistent parameters.

Every add bumps a monotonically increasing :attr:`WorkingSet.version`
stamp and is journalled (:meth:`WorkingSet.added_since`).  A set only
grows: under a digital fountain encoded content never goes stale, so
nothing is removed.  :meth:`WorkingSet.cached_many` — and
:meth:`WorkingSet.cached`, its one-set case — is the one place that
rule is applied: an artefact computed from the set is served while the
version is unchanged, absorbs the journalled delta when the set grew
and it can (Section 4's O(1)-per-symbol maintenance: the min-wise
card), and is rebuilt from the set otherwise.  Summaries — a node's
calling card among them, which is its own packed row — and catalog
inventories all live there, so a cache dies with the set it describes.
The set itself is the only copy of its ids: no summary keeps one.
"""

from functools import partial
from itertools import starmap
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

#: Default universe for symbol keys: 2^32 ids is "large" relative to any
#: simulated file while keeping minwise permutation arithmetic cheap.
DEFAULT_KEY_UNIVERSE = 1 << 32


class WorkingSet:
    """The set of encoded-symbol ids a peer currently holds."""

    def __init__(self, ids: Iterable[int] = ()):
        self._ids: Set[int] = set(ids)
        # Monotone change stamp: bumped once per successful mutation.
        # Initial content counts as version 0 — a summary built now and
        # stamped 0 can absorb everything added later.
        self._version = 0
        # Append-only journal of added ids; entry i was the add that
        # produced version i + 1.
        self._log: List[int] = []
        # key -> (version at which the artefact was current, artefact).
        self._derived: Dict[Hashable, Tuple[int, Any]] = {}

    # -- change tracking ---------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone stamp, bumped on every successful add."""
        return self._version

    def added_since(self, version: int) -> List[int]:
        """Ids added after ``version``, a stamp this set has had.

        An empty list means nothing changed.  Ids are returned in
        insertion order, each exactly once.

        Raises:
            ValueError: for a version this set never had.
        """
        if not 0 <= version <= self._version:
            raise ValueError(
                f"version {version} is not one this set has had "
                f"(0 to {self._version})"
            )
        return self._log[version:]

    def cached(
        self,
        key: Hashable,
        build: Callable[["WorkingSet"], Any],
        absorb: Optional[Callable[[Any, List[int]], Any]] = None,
    ) -> Any:
        """The artefact ``build(self)`` computes, kept current under ``key``.

        The one-set case of :meth:`cached_many`, whose rule it follows:
        served as-is while :attr:`version` is unchanged; brought current
        with ``absorb(artefact, added_since(stamp))`` when the set grew
        since the stamp and ``absorb`` is given; rebuilt otherwise.
        ``build`` and ``absorb`` must be deterministic, RNG-free
        functions of the set (and of ``key``), so a served artefact
        equals a from-scratch one.  Callers share the returned object
        and must treat it as immutable.
        """
        # The served case is every card and summary read: answered
        # here, without the batch machinery.
        entry = self._derived.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        return self.cached_many(
            (self,),
            key,
            partial(map, build),
            None if absorb is None else partial(starmap, absorb),
        )[0]

    @staticmethod
    def cached_many(
        sets: Iterable["WorkingSet"],
        key: Hashable,
        build_many: Callable[[List["WorkingSet"]], Iterable[Any]],
        absorb_many: Optional[
            Callable[[Iterator[Tuple[Any, List[int]]]], Iterable[Any]]
        ] = None,
    ) -> List[Any]:
        """``[ws.cached(key, build, absorb) for ws in sets]``, with the
        stale entries brought current together.

        The rule, per set: served while its version is unchanged;
        absorbed when it grew since the stamp and ``absorb_many`` is
        given; rebuilt otherwise.  All absorbs are one
        ``absorb_many(pairs)`` call over ``(artefact, added_since(stamp))``
        pairs and all rebuilds one ``build_many(sets)`` call; each
        yields one artefact per input, in order — what the per-set
        ``absorb`` / ``build`` would return (``starmap(absorb, pairs)``
        and ``map(build, sets)`` are the one-at-a-time forms).  The
        pairs are read lazily and each artefact is stored as it
        arrives, so the one it supersedes can go before the next is
        made.  ``sets`` must not repeat a set.
        """
        order = list(sets)
        grown: List["WorkingSet"] = []
        stale: List["WorkingSet"] = []
        for ws in order:
            entry = ws._derived.get(key)
            if entry is None:
                stale.append(ws)
            elif entry[0] != ws._version:
                (stale if absorb_many is None else grown).append(ws)
        if grown:
            # Read lazily: a superseded artefact and its delta live only
            # while they are in flight.
            pairs = (ws._absorb_pair(key) for ws in grown)
            for ws, artefact in zip(grown, absorb_many(pairs)):
                ws._derived[key] = (ws._version, artefact)
        if stale:
            for ws, artefact in zip(stale, build_many(stale)):
                ws._derived[key] = (ws._version, artefact)
        return [ws._derived[key][1] for ws in order]

    def _absorb_pair(self, key: Hashable) -> Tuple[Any, List[int]]:
        """The entry under ``key`` and the ids added since its stamp."""
        stamp, artefact = self._derived[key]
        return artefact, self.added_since(stamp)

    # -- set behaviour ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, symbol_id: int) -> bool:
        return symbol_id in self._ids

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    # ``frozenset - ws`` / ``frozenset & ws``: what a peeler that peels
    # into this set asks per packet, answered by one C-level set op.
    def __rsub__(self, other: AbstractSet[int]) -> AbstractSet[int]:
        return other - self._ids

    def __rand__(self, other: AbstractSet[int]) -> AbstractSet[int]:
        return other & self._ids

    @property
    def id_set(self) -> AbstractSet[int]:
        """The id set itself, not a copy, for a kernel that reads it in
        place (a batched card build counts and folds it).  Read it; never
        write it."""
        return self._ids

    @property
    def ids(self) -> Set[int]:
        """A copy of the id set, O(n).

        Per-packet and per-tick paths use ``len()``, ``in`` and the set
        relations below instead.
        """
        return set(self._ids)

    def add(self, symbol_id: int) -> bool:
        """Insert; returns True if the symbol was new."""
        if symbol_id in self._ids:
            return False
        self._ids.add(symbol_id)
        self._version += 1
        self._log.append(symbol_id)
        return True

    # -- ground-truth relations (used by scenario builders and tests) -----

    def resemblance_with(self, other: "WorkingSet") -> float:
        """True ``|self ∩ other| / |self ∪ other|``."""
        union = self._ids | other._ids
        if not union:
            return 0.0
        return len(self._ids & other._ids) / len(union)

    # -- the generic summary surface ----------------------------------------

    def summary(self, kind: str, **params):
        """The set's registered :class:`~repro.reconcile.base.Summary`.

        One call covers the whole cost/precision spectrum::

            ws.summary("minwise", entries=128)        # 1KB calling card
            ws.summary("bloom", bits_per_element=8)   # searchable summary
            ws.summary("art", bits_per_element=8)     # reconciliation tree
            ws.summary("cpi", max_discrepancy=64)     # exact baseline

        The first client of :meth:`cached`: one shared object per
        ``(kind, params)`` and version — treat it as immutable — that
        absorbs new ids when the kind is incremental.  Schemes and
        policies read the same entry through a
        :func:`~repro.reconcile.summary_recipe` they precompute.
        """
        from repro.reconcile import summary_recipe

        return self.cached(*summary_recipe(kind, params))
