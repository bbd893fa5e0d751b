"""The prototype protocol's data message and its wire format.

Serialisation is deliberately simple (struct headers + raw payloads) —
the point is faithful sizes, not wire-format innovation.  Control bytes
(hellos, the request, the summary) are charged by the session that
ships them (:mod:`repro.protocol.session`), not built as messages.
"""

import struct

from repro.coding.symbol import Packet


class DataMessage(Packet):
    """The one :class:`~repro.coding.symbol.Packet` plus its wire format.

    A plain symbol is ``<Q symbol_id`` + payload; a blend is ``<H count``
    + ``count`` sorted ``<Q`` ids + payload.  Which of the two a blob is
    travels out of band, hence the two parsers; both refuse a malformed
    blob with :class:`ValueError`.
    """

    __slots__ = ()

    def pack(self) -> bytes:
        """Serialise (used by tests to pin the format)."""
        if self.payload is None:
            raise ValueError("cannot pack a data message without its payload")
        if self.is_recoded:
            ids = sorted(self.constituent_ids)
            return struct.pack(f"<H{len(ids)}Q", len(ids), *ids) + self.payload
        return struct.pack("<Q", self.symbol_id) + self.payload

    @classmethod
    def unpack_encoded(cls, blob: bytes) -> "DataMessage":
        """Parse a plain encoded-symbol packet."""
        if len(blob) < 8:
            raise ValueError("truncated encoded packet: no 8-byte symbol id")
        (symbol_id,) = struct.unpack_from("<Q", blob)
        return cls.encoded(symbol_id, blob[8:])

    @classmethod
    def unpack_recoded(cls, blob: bytes) -> "DataMessage":
        """Parse a recoded packet."""
        if len(blob) < 2:
            raise ValueError("truncated recoded packet: no 2-byte id count")
        (count,) = struct.unpack_from("<H", blob)
        if len(blob) < 2 + 8 * count:
            raise ValueError(f"truncated recoded packet: {count} ids announced")
        ids = struct.unpack_from(f"<{count}Q", blob, 2)
        packet = cls.recoded(ids, blob[2 + 8 * count :])
        if packet.degree != count:
            raise ValueError("a recoded packet lists an id twice")
        return packet
