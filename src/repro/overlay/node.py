"""Overlay end-systems.

A node owns a working set of encoded symbols, publishes its min-wise
calling card (Section 4), and tracks completion against the file's
recovery target.  Sources hold full content and mint fresh symbols;
partial nodes serve from what they hold.
"""

import itertools
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.delivery.working_set import DEFAULT_KEY_UNIVERSE, WorkingSet


def _card_keys(
    kind: str, params: Tuple[Tuple[str, Any], ...], ids: Iterable[int]
) -> Iterable[int]:
    """The keys a card of ``kind`` summarises for ``ids``: min-wise
    permutations are defined over their family's key universe, so those
    cards take the ids folded into it."""
    if kind != "minwise":
        return ids
    universe = dict(params).get("universe", DEFAULT_KEY_UNIVERSE)
    return (i % universe for i in ids)


class OverlayNode:
    """One end-system in the overlay.

    Args:
        node_id: unique name.
        target: distinct symbols needed to recover the file (decoding
            overhead included).
        initial_ids: working set at join time.
        is_source: sources hold the whole file and generate fresh
            encoding on demand (never run dry, never redundant).
        max_connections: inbound connection slots (download concurrency).

    Cached summary cards are stamped with the working set's
    :attr:`~repro.delivery.working_set.WorkingSet.version` and,
    when the set grew since the stamp, brought current by *absorbing*
    the journalled delta (Section 4's O(1)-per-symbol maintenance)
    rather than rebuilding — bit-identical either way, which the parity
    suites pin.  Kinds that cannot absorb, and working sets that shrank,
    fall back to the rebuild.
    """

    def __init__(
        self,
        node_id: str,
        target: int,
        initial_ids: Iterable[int] = (),
        is_source: bool = False,
        max_connections: int = 4,
        fresh_id_start: Optional[int] = None,
    ):
        if target < 1:
            raise ValueError("target must be positive")
        self.node_id = node_id
        self.target = target
        self.working_set = WorkingSet(initial_ids)
        self.is_source = is_source
        self.max_connections = max_connections
        #: (kind, sorted params) -> (working-set version at build, card).
        self._cards: Dict[
            Tuple[str, Tuple[Tuple[str, Any], ...]], Tuple[int, Any]
        ] = {}
        if is_source:
            start = fresh_id_start if fresh_id_start is not None else (1 << 40)
            self._fresh_ids = itertools.count(start)
        else:
            self._fresh_ids = None
        self.joined_at_tick = 0
        self.completed_at_tick: Optional[int] = None

    # -- content state ------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """Sources are complete by definition; peers need ``target`` ids."""
        return self.is_source or len(self.working_set) >= self.target

    def receive_symbol(self, symbol_id: int) -> bool:
        """Add one symbol id; True if it was new.

        Cache invalidation is implicit: the working set bumps its
        version stamp, which the cached cards compare against —
        so even ids added to ``working_set`` directly (scenario seeding)
        invalidate correctly.
        """
        return self.working_set.add(symbol_id)

    def mint_fresh_id(self) -> int:
        """Sources only: a fresh encoded-symbol id nobody has seen."""
        if self._fresh_ids is None:
            raise RuntimeError(f"{self.node_id} is not a source")
        return next(self._fresh_ids)

    # -- calling card --------------------------------------------------------

    def summary_card(
        self, kind: str, params: Tuple[Tuple[str, Any], ...] = ()
    ) -> Any:
        """Current working-set summary of any registered kind, cached.

        The node's one calling card per ``(kind, params)`` — joins,
        admission and rewiring all read it: builds a
        :class:`~repro.reconcile.base.Summary` through the adapter
        registry, stamps it with the working set's version, and — for
        kinds declaring ``supports_incremental`` — brings a stale card
        current by absorbing the journalled delta instead of rebuilding,
        so a reconfiguration epoch scanning many candidate pairs pays
        per *new symbol*, not per working-set size.  The cache key
        sorts ``params``, so permuted-but-equal tuples share one row.
        """
        key = (kind, tuple(sorted(params)))
        ws = self.working_set
        version = ws.version
        entry = self._cards.get(key)
        if entry is not None:
            stamp, card = entry
            if stamp == version:
                return card
            if getattr(card, "supports_incremental", False) and card.is_local:
                delta = ws.added_since(stamp)
                if delta is not None:
                    card = card.absorb(_card_keys(kind, params, delta))
                    self._cards[key] = (version, card)
                    return card
        from repro.reconcile import build_summary

        card = build_summary(
            kind, _card_keys(kind, params, ws.ids), **dict(params)
        )
        self._cards[key] = (version, card)
        return card

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "source" if self.is_source else "peer"
        return (
            f"OverlayNode({self.node_id}, {kind}, "
            f"{len(self.working_set)}/{self.target})"
        )
