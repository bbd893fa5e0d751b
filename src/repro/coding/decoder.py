"""Decoding encoded symbols into source blocks (Section 5.4.1).

An encoded symbol is a blend of source blocks exactly as a recoded
symbol is a blend of encoded symbols, and the paper decodes both with
the substitution rule of [16].  :class:`PeelingDecoder` therefore *is*
a :class:`~repro.coding.peeler.RecodedPeeler` whose ids are source-block
indices: the pending graph and the ripple live there, once.  This
module adds only what the block level needs — completion against
``num_blocks``, content reassembly, and the Gaussian tail.  Decoding
cost is proportional to the total degree of the symbols consumed, as
Section 5.4.1 states.
"""

from typing import Dict, Iterable, List, Optional

from repro.coding.peeler import RecodedPeeler, _xor
from repro.coding.symbol import EncodedSymbol


class PeelingDecoder(RecodedPeeler):
    """Incremental decoder for sparse parity-check encoded symbols.

    Args:
        num_blocks: ``l``, the number of source blocks to recover.
        track_payloads: when False, runs identity-only (no XOR work) —
            used by the delivery simulator where only decodability
            matters.
    """

    def __init__(self, num_blocks: int, track_payloads: bool = True):
        if num_blocks < 1:
            raise ValueError("need at least one source block")
        super().__init__()
        self.num_blocks = num_blocks
        self.track_payloads = track_payloads

    # -- status -----------------------------------------------------------

    @property
    def symbols_received(self) -> int:
        """Total symbols fed in."""
        return self.recoded_received

    @property
    def symbols_useless(self) -> int:
        """Symbols that were fully redundant on arrival (every
        neighbour already recovered)."""
        return self.recoded_useless

    @property
    def recovered_count(self) -> int:
        """Number of source blocks recovered so far."""
        return len(self._known)

    @property
    def is_complete(self) -> bool:
        """True once every source block is recovered."""
        return len(self._known) == self.num_blocks

    def recovered_blocks(self) -> Dict[int, Optional[bytes]]:
        """Mapping of recovered block index -> payload (or None)."""
        return {i: self._payloads.get(i) for i in self._known}

    def decoded_content(self, trim_to: Optional[int] = None) -> bytes:
        """Reassemble the original content (payload mode only).

        Args:
            trim_to: cut the concatenation to this many bytes (undo the
                encoder's final-block zero padding).

        Raises:
            RuntimeError: if decoding is incomplete or payload-free.
        """
        if not self.is_complete:
            raise RuntimeError(
                f"decoding incomplete: {self.recovered_count}/{self.num_blocks}"
            )
        if not self.track_payloads:
            raise RuntimeError("decoder was run in identity-only mode")
        parts = []
        for i in range(self.num_blocks):
            payload = self._payloads.get(i)
            if payload is None:
                raise RuntimeError(f"block {i} recovered without payload")
            parts.append(payload)
        content = b"".join(parts)
        return content[:trim_to] if trim_to is not None else content

    # -- decoding -------------------------------------------------------------

    def add_symbol(self, symbol: EncodedSymbol) -> List[int]:
        """Consume one encoded symbol; return newly recovered block indices."""
        return self._add_blend(
            symbol.source_indices, symbol.payload if self.track_payloads else None
        )

    def add_symbols(self, symbols: Iterable[EncodedSymbol]) -> List[int]:
        """Consume a batch; return all newly recovered block indices."""
        recovered: List[int] = []
        for s in symbols:
            recovered.extend(self.add_symbol(s))
        return recovered

    # -- Gaussian fallback (inactivation decoding) ---------------------------

    def solve_remaining(self) -> List[int]:
        """Finish decoding by GF(2) elimination over the pending symbols.

        Peeling alone needs a few percent of extra symbols and stalls
        abruptly at small block counts; practical fountain codecs finish
        the tail with Gaussian elimination (inactivation decoding), which
        is how implementations reach the paper's "3-5% more than the
        number of symbols in the original file".  Cost is cubic in the
        number of *unresolved* blocks only, so calling it after peeling
        is cheap in the common case.

        Returns newly recovered block indices, in no particular order
        (possibly empty if the pending system is underdetermined).
        """
        if not self._pending_constituents:
            return []
        unknowns = sorted(
            {b for ns in self._pending_constituents.values() for b in ns}
        )
        pos = {b: i for i, b in enumerate(unknowns)}
        # Forward elimination with lowest-set-bit pivoting.
        pivots: Dict[int, List] = {}  # pivot bit index -> [mask, payload]
        for pid, neighbours in self._pending_constituents.items():
            mask = 0
            for b in neighbours:
                mask |= 1 << pos[b]
            payload = self._pending_payload.get(pid)
            while mask:
                low = (mask & -mask).bit_length() - 1
                if low not in pivots:
                    pivots[low] = [mask, payload]
                    break
                pmask, ppayload = pivots[low]
                mask ^= pmask
                payload = _xor(payload, ppayload)
        # Back-substitution from the highest pivot down: a row's non-pivot
        # bits are all higher than its pivot, hence already processed.
        solved: Dict[int, Optional[bytes]] = {}
        for bit in sorted(pivots, reverse=True):
            mask, payload = pivots[bit]
            rest = mask & ~(1 << bit)
            determined = True
            while rest:
                high = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if high not in solved:
                    determined = False
                    break
                payload = _xor(payload, solved[high])
            if determined:
                solved[bit] = payload
        # A solved block is a plain arrival: the substitution rule keeps
        # the pending graph consistent for symbols that arrive later.
        newly: List[int] = []
        for bit, payload in solved.items():
            newly.extend(self.add_encoded(unknowns[bit], payload))
        return newly
