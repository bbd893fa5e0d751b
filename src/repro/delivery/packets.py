"""Identity-level transmissions exchanged in the delivery simulator.

The Section 6 simulations only need symbol *identities* (which encoded
symbols a packet conveys), not payload bytes — usefulness is a set
property.  :class:`Packet` is what the figure loops and the overlay
simulator move; the prototype protocol in :mod:`repro.protocol` carries
real payloads in its own :class:`~repro.protocol.messages.DataMessage`.
"""

from dataclasses import dataclass
from typing import FrozenSet, Optional


@dataclass(frozen=True)
class Packet:
    """One transmission: a plain encoded symbol or a recoded blend.

    Exactly one of ``encoded_id`` / ``recoded_ids`` is set.
    """

    encoded_id: Optional[int] = None
    recoded_ids: Optional[FrozenSet[int]] = None
    payload: Optional[bytes] = None

    def __post_init__(self):
        if (self.encoded_id is None) == (self.recoded_ids is None):
            raise ValueError(
                "a packet is either one encoded symbol or one recoded symbol"
            )
        if self.recoded_ids is not None and not self.recoded_ids:
            raise ValueError("a recoded packet must blend >= 1 symbol")

    @property
    def is_recoded(self) -> bool:
        return self.recoded_ids is not None

    @classmethod
    def encoded(cls, symbol_id: int, payload: Optional[bytes] = None) -> "Packet":
        """A plain encoded-symbol transmission."""
        return cls(encoded_id=symbol_id, payload=payload)

    @classmethod
    def recoded(cls, ids: FrozenSet[int], payload: Optional[bytes] = None) -> "Packet":
        """A recoded transmission blending ``ids``."""
        return cls(recoded_ids=frozenset(ids), payload=payload)
