"""Symbol types for encoded and recoded content.

Section 5.4.2: "An encoded symbol must specify the source blocks from
which it was generated; a recoded symbol must enumerate the encoded
symbols from which it was produced."  Both kinds carry that specification
explicitly, plus an optional byte payload — the delivery simulator runs
identity-only (payload ``None``) for speed, while the prototype protocol
ships real bytes.
"""

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

#: Where full sources mint fresh symbol ids: source ``i`` counts up from
#: ``FRESH_ID_BASE + i * FRESH_ID_STRIDE``, far above every sampled
#: content id, so no two minted streams share an id.
FRESH_ID_BASE = 1 << 40
FRESH_ID_STRIDE = 1 << 20


def xor_payloads(payloads: Iterable[bytes]) -> bytes:
    """XOR equal-length byte strings together.

    Uses big-int XOR, which CPython executes in C — fast enough to encode
    the paper's 1400-byte blocks at tens of MB/s without numpy.
    """
    acc: Optional[int] = None
    length = -1
    for p in payloads:
        if acc is None:
            acc = int.from_bytes(p, "little")
            length = len(p)
        else:
            if len(p) != length:
                raise ValueError(
                    f"payload length mismatch: {len(p)} != {length}; "
                    "all blocks in a code must be fixed-length"
                )
            acc ^= int.from_bytes(p, "little")
    if acc is None:
        raise ValueError("cannot XOR zero payloads")
    return acc.to_bytes(length, "little")


@dataclass(frozen=True)
class EncodedSymbol:
    """One output symbol of the fountain code.

    Attributes:
        symbol_id: position in the (conceptually unbounded) encoding
            stream; doubles as the working-set key used by sketches,
            Bloom filters, and ARTs.
        source_indices: the source blocks XOR-ed to form the payload.
        payload: the XOR of those blocks, or ``None`` in identity-only
            simulations.
    """

    symbol_id: int
    source_indices: FrozenSet[int]
    payload: Optional[bytes] = None

    @property
    def degree(self) -> int:
        """Number of source blocks blended in (encode cost ∝ degree)."""
        return len(self.source_indices)

    def header_bytes(self, id_bits: int = 64) -> int:
        """Wire overhead of the composition metadata.

        Section 6.1 uses 64-bit degree-sequence representations; we model
        the header as the symbol id (seed for the neighbour PRNG) rather
        than an explicit index list, matching practical fountain codecs.
        """
        return id_bits // 8

    def __post_init__(self):
        if not self.source_indices:
            raise ValueError("an encoded symbol must cover >= 1 source block")
        if self.symbol_id < 0:
            raise ValueError("symbol ids are non-negative")


@dataclass(slots=True)
class Packet:
    """One transmission: a plain encoded symbol or a recoded blend (§5.4.2).

    Exactly one of ``symbol_id`` / a non-empty ``constituent_ids`` is
    set — anything else is refused with :class:`ValueError`.  This is
    the one data unit every layer moves: strategies, sources and
    recoders compose it, links carry it, :meth:`~repro.coding.peeler.
    RecodedPeeler.receive` peels it, and :class:`~repro.protocol.
    messages.DataMessage` is this class plus the struct wire format.
    Nobody mutates one; it is slotted rather than frozen because a
    frozen ``__init__`` costs more than composing the packet does.

    Attributes:
        symbol_id: the encoded symbol conveyed (``None`` for a blend);
            it identifies the composition via the shared stream seed.
        constituent_ids: ids of the encoded symbols blended together
            (empty for a plain symbol); the receiver needs this list
            for the substitution rule.
        payload: the symbol's bytes or the XOR of the constituents'
            (``None`` in identity simulations).
    """

    symbol_id: Optional[int] = None
    constituent_ids: FrozenSet[int] = frozenset()
    payload: Optional[bytes] = None

    def __post_init__(self):
        if (self.symbol_id is None) != bool(self.constituent_ids):
            raise ValueError(
                "a packet is either one encoded symbol or a blend of >= 1"
            )

    @classmethod
    def encoded(cls, symbol_id: int, payload: Optional[bytes] = None):
        """A plain encoded-symbol transmission."""
        return cls(symbol_id, frozenset(), payload)

    @classmethod
    def recoded(cls, ids: Iterable[int], payload: Optional[bytes] = None):
        """A recoded transmission blending ``ids``."""
        return cls(None, frozenset(ids), payload)

    @property
    def is_recoded(self) -> bool:
        return self.symbol_id is None

    @property
    def degree(self) -> int:
        """Encoded symbols conveyed: 1, or the blend's constituent count."""
        return len(self.constituent_ids) or 1

    def wire_bytes(self) -> int:
        """Bytes on the wire: a plain symbol pays its 8-byte id, a blend
        a 2-byte count plus 8 bytes per constituent (header ∝ degree,
        as §5.4.2 describes), then the payload."""
        header = 2 + 8 * len(self.constituent_ids) if self.is_recoded else 8
        return header + len(self.payload or b"")
