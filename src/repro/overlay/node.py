"""Overlay end-systems.

A node owns a working set of encoded symbols and tracks completion
against the file's recovery target.  That set is the only record of
what the node holds: its calling card (Section 4) is the set's cached
summary — :meth:`~repro.overlay.reconfiguration.SummaryScheme.card_of`
reads it there — and the simulator peels arriving packets into the set
itself (:attr:`OverlayNode.peeler`).  Sources hold full content and
mint fresh symbols; partial nodes serve from what they hold.
"""

import itertools
from typing import Iterable, Optional

from repro.coding.peeler import RecodedPeeler
from repro.coding.symbol import FRESH_ID_BASE
from repro.delivery.working_set import WorkingSet


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
        # Pending recoded arrivals, kept by the simulator the node is
        # in; what it recovers goes straight into ``working_set``.
        self.peeler: Optional[RecodedPeeler] = None
        self.is_source = is_source
        self.max_connections = max_connections
        if is_source:
            start = fresh_id_start if fresh_id_start is not None else FRESH_ID_BASE
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
        """Add one symbol id; True if it was new."""
        return self.working_set.add(symbol_id)

    def mint_fresh_id(self) -> int:
        """Sources only: a fresh encoded-symbol id nobody has seen."""
        if self._fresh_ids is None:
            raise RuntimeError(f"{self.node_id} is not a source")
        return next(self._fresh_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "source" if self.is_source else "peer"
        return (
            f"OverlayNode({self.node_id}, {kind}, "
            f"{len(self.working_set)}/{self.target})"
        )
