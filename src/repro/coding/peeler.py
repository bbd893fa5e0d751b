"""Receiver-side peeling of recoded symbols back to encoded symbols.

Section 5.4.2's example: a peer receiving ``z1 = y13``, ``z2 = y5 ⊕ y8``
and ``z3 = y5 ⊕ y13`` immediately recovers ``y13``, substitutes it into
``z3`` to recover ``y5``, then recovers ``y8`` from ``z2``.  This module
implements that substitution process over *encoded-symbol* identifiers,
one level above :class:`~repro.coding.decoder.PeelingDecoder` which peels
encoded symbols into source blocks.

"Recoded symbols which are not immediately useful are often eventually
useful" — the peeler keeps them pending until later arrivals reduce them.
"""

from typing import Dict, Iterable, List, Optional, Set

from repro.coding.symbol import RecodedSymbol


class RecodedPeeler:
    """Tracks known encoded symbols and pending recoded symbols.

    Args:
        known_ids: encoded-symbol ids the receiver already holds.
        payloads: optional id -> payload map for payload-mode operation.

    Attributes:
        recoded_received: recoded symbols fed in.
        recoded_useless: arrivals whose constituents were all already
            known (fully redundant transmissions).
    """

    def __init__(
        self,
        known_ids: Iterable[int] = (),
        payloads: Optional[Dict[int, bytes]] = None,
    ):
        self._known: Set[int] = set(known_ids)
        self._payloads: Dict[int, bytes] = dict(payloads or {})
        self._pending_constituents: Dict[int, Set[int]] = {}
        self._pending_payload: Dict[int, Optional[bytes]] = {}
        self._waiting: Dict[int, Set[int]] = {}
        self._next_id = 0
        self.recoded_received = 0
        self.recoded_useless = 0

    # -- status ------------------------------------------------------------

    @property
    def known_count(self) -> int:
        """How many encoded symbols the receiver holds; O(1)."""
        return len(self._known)

    @property
    def known_ids(self) -> Set[int]:
        """Ids of encoded symbols now in the receiver's possession.

        A copy, O(n): use :attr:`known_count` on per-packet paths.
        """
        return set(self._known)

    @property
    def pending_count(self) -> int:
        """Recoded symbols still waiting for reduction."""
        return len(self._pending_constituents)

    def payload_of(self, symbol_id: int) -> Optional[bytes]:
        """Recovered payload of an encoded symbol, if tracked."""
        return self._payloads.get(symbol_id)

    # -- ingest ----------------------------------------------------------------

    def add_encoded(self, symbol_id: int, payload: Optional[bytes] = None) -> List[int]:
        """Receive a plain encoded symbol; returns newly recovered ids."""
        if symbol_id in self._known:
            return []
        self._know(symbol_id, payload)
        return [symbol_id] + self._reduce_waiters(symbol_id)

    def add_recoded(self, symbol: RecodedSymbol) -> List[int]:
        """Receive a recoded symbol; returns encoded ids newly recovered.

        A degree-1 recoded symbol is just an encoded symbol in disguise
        and resolves immediately; higher degrees resolve when all but one
        constituent is known, possibly triggering a cascade.
        """
        self.recoded_received += 1
        unknown = symbol.constituent_ids - self._known
        if not unknown:
            self.recoded_useless += 1
            return []
        payload = symbol.payload
        if payload is not None:
            for known_id in symbol.constituent_ids & self._known:
                kp = self._payloads.get(known_id)
                if kp is not None:
                    payload = _xor(payload, kp)
        pid = self._next_id
        self._next_id += 1
        self._pending_constituents[pid] = set(unknown)
        self._pending_payload[pid] = payload
        for cid in unknown:
            self._waiting.setdefault(cid, set()).add(pid)
        if len(unknown) == 1:
            return self._resolve(pid)
        return []

    # -- internals -----------------------------------------------------------------

    def _know(self, symbol_id: int, payload: Optional[bytes]) -> None:
        self._known.add(symbol_id)
        if payload is not None:
            self._payloads[symbol_id] = payload

    def _resolve(self, pid: int) -> List[int]:
        recovered: List[int] = []
        frontier = [pid]
        while frontier:
            cur = frontier.pop()
            constituents = self._pending_constituents.get(cur)
            if constituents is None or len(constituents) != 1:
                continue
            new_id = next(iter(constituents))
            new_payload = self._pending_payload.get(cur)
            self._drop(cur)
            if new_id in self._known:
                continue
            self._know(new_id, new_payload)
            recovered.append(new_id)
            frontier.extend(self._reduce_ids(new_id, collect_frontier=True))
        return recovered

    def _reduce_waiters(self, symbol_id: int) -> List[int]:
        """Substitute a newly known encoded symbol into pending recodes."""
        recovered: List[int] = []
        for pid in self._reduce_ids(symbol_id, collect_frontier=True):
            recovered.extend(self._resolve(pid))
        return recovered

    def _reduce_ids(self, symbol_id: int, collect_frontier: bool) -> List[int]:
        ready: List[int] = []
        for pid in list(self._waiting.pop(symbol_id, ())):
            constituents = self._pending_constituents.get(pid)
            if constituents is None:
                continue
            constituents.discard(symbol_id)
            payload = self._payloads.get(symbol_id)
            if payload is not None:
                current = self._pending_payload[pid]
                if current is not None:
                    self._pending_payload[pid] = _xor(current, payload)
            if len(constituents) == 1:
                ready.append(pid)
            elif not constituents:
                self._drop(pid)
        return ready if collect_frontier else []

    def _drop(self, pid: int) -> None:
        constituents = self._pending_constituents.pop(pid, None)
        self._pending_payload.pop(pid, None)
        if constituents:
            for cid in constituents:
                waiters = self._waiting.get(cid)
                if waiters is not None:
                    waiters.discard(pid)
                    if not waiters:
                        del self._waiting[cid]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )
