"""Multi-object catalogs over the overlay: who holds *what*, not just which symbols.

The paper's reconciliation machinery summarises symbol working sets;
with several objects in flight a peer first needs to know *which
objects* a candidate holds before its symbol card means anything.
This module supplies the three pieces the catalog-aware scenarios use:

* :class:`ObjectCatalog` — the frozen demand model derived from a
  ``CatalogSpec`` + ``SwarmSpec`` pair: per-object symbol targets
  (sizes apportioned by the shared :mod:`repro.flow.demand` Zipf
  machinery), disjoint symbol-id ranges, and per-object priority
  weights.
* :class:`CatalogNode` — an :class:`~repro.overlay.node.OverlayNode`
  that tracks per-object progress and completes when every *demanded*
  object reaches its target (undemanded objects are carried but never
  gate completion).
* :class:`CatalogScheme` — a :class:`~repro.overlay.reconfiguration.
  SummaryScheme` whose usefulness estimate is gated by object overlap:
  a candidate holding none of the receiver's wanted objects scores
  zero before any symbol card is consulted, and candidates stocking
  more of the higher-priority wanted objects score proportionally
  higher.  The object inventory rides along with the calling card, so
  ``card_wire_bytes`` charges one fill-level byte per catalog object.

The gate multiplies *on top of* the base scheme's estimates rather
than replacing them, so a catalog run compares symbol cards through the
same kernel as every other run.
"""

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.delivery.working_set import WorkingSet
from repro.flow.demand import apportion, zipf_shares
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import SummaryScheme

if TYPE_CHECKING:  # import at runtime would cycle through repro.api
    from repro.api.spec import CatalogSpec, SwarmSpec

__all__ = ["ObjectCatalog", "CatalogNode", "CatalogScheme"]


class ObjectCatalog:
    """The resolved multi-object demand model of one experiment.

    Objects are indexed by demand rank (0 = most popular).  Each object
    ``o`` owns the disjoint symbol-id range ``[o * stride, o * stride +
    distinct[o])``, so a symbol id maps back to its object with one
    integer division and the single-object scenarios are the
    ``objects=1`` special case (stride beyond any single-object id).
    """

    def __init__(
        self,
        targets: Sequence[int],
        distinct: Sequence[int],
        priorities: Sequence[float],
        demand_shares: Sequence[float],
    ):
        if not targets:
            raise ValueError("catalog needs at least one object")
        self.targets = tuple(targets)
        self.distinct = tuple(distinct)
        self.priorities = tuple(priorities)
        self.demand_shares = tuple(demand_shares)
        #: One id stride covers the largest object's distinct range.
        self.stride = max(self.distinct) + 1
        self.objects = len(self.targets)
        # WorkingSet.cached arguments: (key, build, absorb).
        self._inventory = (
            ("catalog-inventory", self),
            self._count,
            self._count_more,
        )

    @classmethod
    def from_specs(
        cls, catalog: "CatalogSpec", swarm: "SwarmSpec"
    ) -> "ObjectCatalog":
        """Resolve the spec pair into concrete targets and priorities.

        Object sizes split ``swarm.target`` by ``1/rank^size_skew``
        via largest-remainder apportionment (every object keeps at
        least one symbol); per-object demand shares follow
        ``zipf_skew`` — both through :mod:`repro.flow.demand`, the
        same machinery the flow-fidelity population engine uses, so
        packet- and flow-level catalogs agree by construction.
        """
        sizes = apportion(swarm.target, zipf_shares(catalog.objects, catalog.size_skew))
        targets = [max(1, size) for size in sizes]
        distinct = [
            max(t, int(t * swarm.distinct_multiplier)) for t in targets
        ]
        tiers = catalog.priority_tiers
        if tiers > 0:
            priorities = [
                (tiers - (rank * tiers // catalog.objects)) / tiers
                for rank in range(catalog.objects)
            ]
        else:
            priorities = [1.0] * catalog.objects
        return cls(
            targets=targets,
            distinct=distinct,
            priorities=priorities,
            demand_shares=zipf_shares(catalog.objects, catalog.zipf_skew),
        )

    def object_of(self, symbol_id: int) -> int:
        """Which object a symbol id belongs to (rank index)."""
        return min(symbol_id // self.stride, self.objects - 1)

    def inventory_of(self, working_set: WorkingSet) -> Dict[int, int]:
        """Distinct symbols ``working_set`` holds per object (absent =
        none): computed from the set and cached on it, absorbing each
        arriving symbol in O(1)."""
        return working_set.cached(*self._inventory)

    def _count(self, ids: Iterable[int]) -> Dict[int, int]:
        return self._count_more({}, ids)

    def _count_more(
        self, counts: Dict[int, int], added: Iterable[int]
    ) -> Dict[int, int]:
        # Updated in place: callers of inventory_of only read it.
        for symbol_id in added:
            obj = self.object_of(symbol_id)
            counts[obj] = counts.get(obj, 0) + 1
        return counts

    def symbol_ids(self, obj: int) -> range:
        """The distinct symbol ids making up object ``obj``."""
        base = obj * self.stride
        return range(base, base + self.distinct[obj])

    def assign_demand(self, peers: int) -> List[int]:
        """Which single object each of ``peers`` demands, by Zipf shares.

        Apportions the peer population over objects by demand rank
        (largest remainder), then assigns contiguously: the first
        ``counts[0]`` peers want object 0, and so on.  Deterministic —
        any shuffling is the caller's, under its own derived RNG.
        """
        counts = apportion(peers, self.demand_shares)
        assignment: List[int] = []
        for obj, count in enumerate(counts):
            assignment.extend([obj] * count)
        # Largest-remainder always sums exactly; guard regardless.
        while len(assignment) < peers:
            assignment.append(0)
        return assignment[:peers]


class CatalogNode(OverlayNode):
    """An overlay node demanding a subset of the catalog's objects.

    ``demand`` lists the object ranks this node wants; completion
    requires each demanded object to reach its own symbol target.  A
    node with empty demand is trivially complete (an origin or cache
    that only serves) while still answering inventory queries from
    whatever it holds — :meth:`ObjectCatalog.inventory_of` its working
    set, so no per-node counter can drift from the set.
    """

    def __init__(
        self,
        node_id: str,
        catalog: ObjectCatalog,
        demand: Iterable[int] = (),
        initial_ids: Iterable[int] = (),
        max_connections: int = 4,
    ):
        self.catalog = catalog
        self.demand = tuple(sorted(set(demand)))
        for obj in self.demand:
            if not 0 <= obj < catalog.objects:
                raise ValueError(f"demanded object {obj} outside catalog")
        target = sum(catalog.targets[obj] for obj in self.demand) or 1
        self._wanted_key = ("catalog-wanted", catalog, self.demand)
        super().__init__(
            node_id,
            target,
            initial_ids=initial_ids,
            max_connections=max_connections,
        )

    @property
    def is_complete(self) -> bool:
        held = self.catalog.inventory_of(self.working_set)
        return all(
            held.get(obj, 0) >= self.catalog.targets[obj] for obj in self.demand
        )

    def progress_of(self, obj: int) -> int:
        """Distinct symbols held for object ``obj``."""
        return self.catalog.inventory_of(self.working_set).get(obj, 0)

    def wanted_objects(self) -> frozenset:
        """Demanded objects still short of their target.

        Cached on the working set: the inventory gate in
        :class:`CatalogScheme` consults this once per candidate pair,
        and between symbol arrivals the answer cannot change.
        """
        return self.working_set.cached(self._wanted_key, self._wanted)

    def _wanted(self, working_set: WorkingSet) -> frozenset:
        held = self.catalog.inventory_of(working_set)
        return frozenset(
            obj
            for obj in self.demand
            if held.get(obj, 0) < self.catalog.targets[obj]
        )


class CatalogScheme(SummaryScheme):
    """Catalog-aware usefulness: object inventory before symbol cards.

    The object gate is a pure multiplier on the base symbol-card
    estimate: 0 when the candidate holds none of the receiver's wanted
    objects, and otherwise the priority-weighted *fill level* — how much
    of each wanted object's symbol space the candidate holds, so a peer
    with a stray symbol of a wanted object never ties with the origin
    that holds all of it.  A candidate fully stocked on every wanted
    object scores exactly 1 and reproduces the ungated estimate, and
    the base estimates still come from the one kernel: the gate weighs
    the epoch table's batch (``SummaryScheme.usefulness_many``), it
    never replaces it.
    """

    def __init__(self, catalog: ObjectCatalog, kind: str = "minwise", params: Optional[dict] = None):
        super().__init__(kind, params)
        self.catalog = catalog

    def __eq__(self, other: object) -> bool:
        # A gate over another catalog weighs the same cards differently.
        return (
            isinstance(other, CatalogScheme)
            and other.catalog is self.catalog
            and super().__eq__(other)
        )

    __hash__ = SummaryScheme.__hash__

    def object_weight(self, receiver, candidate) -> float:
        """How much of ``receiver``'s wanted catalog ``candidate`` covers."""
        if not isinstance(receiver, CatalogNode):
            return 1.0
        wanted = receiver.wanted_objects()
        if not wanted:
            return 1.0
        if not isinstance(candidate, CatalogNode):
            # A plain node in a catalog run serves the whole id space.
            return 1.0
        if candidate.is_source:
            return 1.0
        weights = self.catalog.priorities
        total = sum(weights[obj] for obj in wanted)
        if total <= 0.0:
            return 1.0
        share = 0.0
        for obj in wanted:
            fill = candidate.progress_of(obj) / self.catalog.distinct[obj]
            share += weights[obj] * min(1.0, fill)
        if share <= 0.0:
            return 0.0
        return share / total

    def usefulness_many(self, receiver, candidates, table=None) -> List[float]:
        weights = [self.object_weight(receiver, c) for c in candidates]
        # A zero weight settles it before any symbol card is consulted.
        base = iter(
            super().usefulness_many(
                receiver,
                [c for c, w in zip(candidates, weights) if w != 0.0],
                table,
            )
        )
        return [0.0 if w == 0.0 else w * next(base) for w in weights]

    def card_wire_bytes(self, card) -> int:
        # The inventory (one fill-level byte per object) rides with the card.
        return super().card_wire_bytes(card) + self.catalog.objects
