"""Wire messages for the prototype protocol.

Messages carry explicit byte-size accounting so sessions can report
control overhead honestly.  Serialisation is deliberately simple (struct
headers + raw payloads) — the point is faithful sizes, not wire-format
innovation.

Hello and summary messages have one form: each carries a
:class:`~repro.reconcile.base.Summary` built under the peers'
:class:`~repro.reconcile.SummaryPolicy` and charges that summary's own
``wire_bytes`` (set-size header included).
"""

import json
import struct
from dataclasses import dataclass

from repro.coding.symbol import Packet


@dataclass(frozen=True)
class ControlMessage:
    """Base class: anything that is not file data."""

    def wire_bytes(self) -> int:
        raise NotImplementedError


class _SummaryBearer:
    """Shared carriage of a :class:`~repro.reconcile.base.Summary`.

    The summary's JSON payload travels as a string (keeping the message
    dataclasses frozen and hashable); ``summary_wire_bytes`` records the
    summary's honest serialised size, which is what byte accounting
    charges — the JSON form is an in-memory convenience, not the wire
    format.
    """

    summary_kind: str
    summary_json: str
    summary_wire_bytes: int

    def summary(self):
        """Reconstruct the carried :class:`~repro.reconcile.base.Summary`;
        a body that is not one, or that a header field (:meth:`_header`)
        disagrees with, is a :class:`~repro.reconcile.SummaryError`."""
        from repro.reconcile import SummaryError, summary_from_payload

        try:
            payload = json.loads(self.summary_json)
        except (TypeError, ValueError) as exc:
            raise SummaryError(f"summary body is not JSON: {exc}") from None
        summary = summary_from_payload(payload)
        for field, honest in self._header(summary).items():
            declared = getattr(self, field)
            if declared != honest:
                raise SummaryError(
                    f"{type(self).__name__}.{field} is {declared!r}, but the "
                    f"{summary.kind} summary it carries has {honest!r}"
                )
        return summary

    @classmethod
    def carrying(cls, summary):
        """A message transporting any payload-bearing summary."""
        body = json.dumps(summary.to_payload(), sort_keys=True)
        return cls(summary_json=body, **cls._header(summary))

    @staticmethod
    def _header(summary) -> dict:
        """The header fields that describe ``summary``."""
        return {"summary_kind": summary.kind,
                "summary_wire_bytes": summary.wire_bytes()}


@dataclass(frozen=True)
class HelloMessage(ControlMessage, _SummaryBearer):
    """Calling card: working-set size plus a sketch of the set.

    Built by :meth:`carrying` around any registered
    :class:`~repro.reconcile.base.Summary`; charges the 8-byte size
    header plus the sketch's own honest wire size (the default 128 x
    64-bit min-wise card ≈ the paper's single 1KB packet).
    """

    set_size: int
    summary_kind: str
    summary_json: str
    summary_wire_bytes: int

    @staticmethod
    def _header(summary) -> dict:
        return {"set_size": summary.set_size, **_SummaryBearer._header(summary)}

    def wire_bytes(self) -> int:
        return 8 + self.summary_wire_bytes


@dataclass(frozen=True)
class SummaryMessage(ControlMessage, _SummaryBearer):
    """Searchable summary of the working set.

    Built by :meth:`carrying` around any registered
    :class:`~repro.reconcile.base.Summary` (the default is a Bloom
    filter: bits + ``(m, k, seed)`` header); ``wire_bytes`` reports that
    summary's own honest size.
    """

    summary_kind: str
    summary_json: str
    summary_wire_bytes: int

    def wire_bytes(self) -> int:
        return self.summary_wire_bytes


@dataclass(frozen=True)
class RequestMessage(ControlMessage):
    """Receiver -> sender: how many symbols it wants (Section 6.1)."""

    symbols_desired: int

    def wire_bytes(self) -> int:
        return 4


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
