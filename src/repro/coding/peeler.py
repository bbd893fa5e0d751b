"""The substitution rule of [16]: peel blends back to what they blend.

Section 5.4.2's example: a peer receiving ``z1 = y13``, ``z2 = y5 ⊕ y8``
and ``z3 = y5 ⊕ y13`` immediately recovers ``y13``, substitutes it into
``z3`` to recover ``y5``, then recovers ``y8`` from ``z2``.  Section
5.4.1 decodes encoded symbols into source blocks with the very same
rule, so this is the one implementation: :class:`RecodedPeeler` runs it
over *encoded-symbol* ids, and :class:`~repro.coding.decoder.
PeelingDecoder` is this peeler run over *source-block* indices.

"Recoded symbols which are not immediately useful are often eventually
useful" — the peeler keeps them pending until later arrivals reduce them.
"""

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.coding.symbol import Packet


class RecodedPeeler:
    """Tracks known encoded symbols and pending recoded symbols.

    Built with ``known_ids`` the peeler owns a private copy of them;
    built with :meth:`into` it peels into the set its owner already
    holds.

    Args:
        known_ids: encoded-symbol ids the receiver already holds.
        payloads: optional id -> payload map for payload-mode operation.

    Attributes:
        recoded_received: recoded symbols fed in.
        recoded_useless: arrivals whose constituents were all already
            known (fully redundant transmissions).

    The pending state holds only what something waits on: ``_waiting``
    maps an unknown id to the blends that hold it, so a newly known id
    that no blend holds (most plain encoded arrivals) is substituted
    nowhere, and ``_pending_payload`` holds a blend's bytes only when it
    has some (an id-only run stores none).  Every id learned goes
    through ``_know``.
    """

    def __init__(
        self,
        known_ids: Iterable[int] = (),
        payloads: Optional[Dict[int, bytes]] = None,
    ):
        self._known = set(known_ids)
        self._payloads: Dict[int, bytes] = dict(payloads or {})
        self._pending_constituents: Dict[int, Set[int]] = {}
        self._pending_payload: Dict[int, Optional[bytes]] = {}
        self._waiting: Dict[int, Set[int]] = {}
        self._next_id = 0
        self.recoded_received = 0
        self.recoded_useless = 0

    @classmethod
    def into(
        cls, working_set, payloads: Optional[Dict[int, bytes]] = None
    ) -> "RecodedPeeler":
        """A peeler that peels into ``working_set`` itself.

        The set is adopted, never copied: what the peeler knows *is*
        what the set holds, and every recovered id goes through the
        set's own ``add`` (for a :class:`~repro.delivery.working_set.
        WorkingSet`: its version, add journal and cached artefacts stay
        right).  Anything set-like that also answers ``frozenset - s``
        and ``frozenset & s`` will do.
        """
        peeler = cls(payloads=payloads)
        peeler._known = working_set
        return peeler

    # -- status ------------------------------------------------------------

    @property
    def known(self):
        """The set peeled into — the adopted one itself after :meth:`into`."""
        return self._known

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

    def payload_of(self, symbol_id: int) -> Optional[bytes]:
        """Recovered payload of an encoded symbol, if tracked."""
        return self._payloads.get(symbol_id)

    # -- ingest ----------------------------------------------------------------

    def receive(self, packet: Packet) -> List[int]:
        """Ingest one transmission; returns encoded ids newly recovered."""
        if packet.is_recoded:
            return self.add_recoded(packet)
        return self.add_encoded(packet.symbol_id, packet.payload)

    def add_encoded(self, symbol_id: int, payload: Optional[bytes] = None) -> List[int]:
        """Receive a plain encoded symbol; returns newly recovered ids."""
        if symbol_id in self._known:
            return []
        self._know(symbol_id, payload)
        recovered = [symbol_id]
        if symbol_id in self._waiting:
            for pid in self._substitute(symbol_id):
                recovered.extend(self._resolve(pid))
        return recovered

    def add_recoded(self, packet: Packet) -> List[int]:
        """Receive a recoded symbol; returns encoded ids newly recovered.

        A degree-1 recoded symbol is just an encoded symbol in disguise
        and resolves immediately; higher degrees resolve when all but one
        constituent is known, possibly triggering a cascade.
        """
        return self._add_blend(packet.constituent_ids, packet.payload)

    # -- internals -----------------------------------------------------------------

    def _add_blend(self, ids: FrozenSet[int], payload: Optional[bytes]) -> List[int]:
        self.recoded_received += 1
        unknown = ids - self._known
        if not unknown:
            self.recoded_useless += 1
            return []
        if payload is not None:
            for known_id in ids & self._known:
                payload = _xor(payload, self._payloads.get(known_id))
        pid = self._next_id
        self._next_id += 1
        self._pending_constituents[pid] = set(unknown)
        if payload is not None:
            self._pending_payload[pid] = payload
        waiting = self._waiting
        for cid in unknown:
            waiters = waiting.get(cid)
            if waiters is None:
                waiting[cid] = {pid}
            else:
                waiters.add(pid)
        if len(unknown) == 1:
            return self._resolve(pid)
        return []

    def _know(self, symbol_id: int, payload: Optional[bytes]) -> None:
        self._known.add(symbol_id)
        if payload is not None:
            self._payloads[symbol_id] = payload

    def _resolve(self, pid: int) -> List[int]:
        """Run the substitution rule from one candidate blend — the ripple."""
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
            if new_id in self._waiting:
                frontier.extend(self._substitute(new_id))
        return recovered

    def _substitute(self, symbol_id: int) -> List[int]:
        """Substitute a newly known id into every blend waiting on it
        (callers ask only for an id in ``_waiting``); returns the blends
        now down to one unknown."""
        ready: List[int] = []
        payload = self._payloads.get(symbol_id)
        for pid in self._waiting.pop(symbol_id):
            constituents = self._pending_constituents.get(pid)
            if constituents is None:
                continue
            constituents.discard(symbol_id)
            current = self._pending_payload.get(pid)
            if current is not None:
                reduced = _xor(current, payload)
                if reduced is None:
                    del self._pending_payload[pid]
                else:
                    self._pending_payload[pid] = reduced
            if len(constituents) == 1:
                ready.append(pid)
            elif not constituents:
                self._drop(pid)
        return ready

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


def _xor(a: Optional[bytes], b: Optional[bytes]) -> Optional[bytes]:
    """``a ⊕ b``; unknown (``None``) if either side is — a blend reduced
    by a symbol whose bytes were never tracked has no known bytes."""
    if a is None or b is None:
        return None
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )
