"""Protocol peers: full sources and partial holders of real content.

All peers in a session share :class:`CodeParameters` — the universally
agreed code definition (block count/size, degree distribution seed,
stream seed) that makes symbol ids globally meaningful, just as the
min-wise permutation family is agreed off-line.
"""

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.coding import EncodedSymbol, LTEncoder, PeelingDecoder, RecodedPeeler
from repro.coding.symbol import Packet, xor_payloads
from repro.delivery.working_set import WorkingSet
from repro.protocol.messages import DataMessage


@dataclass(frozen=True)
class CodeParameters:
    """The session-wide code agreement."""

    num_blocks: int
    block_size: int
    stream_seed: int = 0
    decoding_overhead: float = 0.07

    @property
    def recovery_target(self) -> int:
        """Distinct symbols a receiver should gather before decoding."""
        return int(math.ceil(self.num_blocks * (1.0 + self.decoding_overhead)))

    def encoder_for(self, content: bytes) -> LTEncoder:
        """Build the canonical encoder for this agreement."""
        return LTEncoder.from_content(
            content, self.block_size, stream_seed=self.stream_seed
        )

    def structure_encoder(self) -> LTEncoder:
        """Payload-free encoder exposing the shared symbol structure."""
        return LTEncoder(self.num_blocks, stream_seed=self.stream_seed)


class ProtocolPeer:
    """A peer holding (some of) the encoded content, with real payloads.

    The ids held live in :attr:`working_set` alone — the recoded-symbol
    peeler peels into it — and :attr:`symbols` maps each to its
    :class:`EncodedSymbol`.  A symbol recovered from a blend over a
    constituent whose bytes this peer never had is held without bytes
    and kept out of the decoder.

    A peer draws nothing it sends (it holds no RNG): a partial sender's
    blends come from its session's strategy, and :meth:`data_for` adds
    their bytes.  A peer holds no summary policy either: the session
    names the summary its receiver ships.
    """

    def __init__(
        self,
        peer_id: str,
        params: CodeParameters,
        content: Optional[bytes] = None,
        initial_symbols: Iterable[EncodedSymbol] = (),
    ):
        self.peer_id = peer_id
        self.params = params
        self.is_source = content is not None
        self._encoder: Optional[LTEncoder] = None
        self._next_fresh = 0
        if content is not None:
            self._encoder = params.encoder_for(content)
            if self._encoder.num_blocks != params.num_blocks:
                raise ValueError(
                    "content does not match the agreed block count: "
                    f"{self._encoder.num_blocks} != {params.num_blocks}"
                )
        self.symbols: Dict[int, EncodedSymbol] = {
            s.symbol_id: s for s in initial_symbols
        }
        self.working_set = WorkingSet(self.symbols)
        self._peeler = RecodedPeeler.into(
            self.working_set,
            payloads={i: s.payload for i, s in self.symbols.items() if s.payload},
        )
        self._structure = params.structure_encoder()
        self.decoder = PeelingDecoder(params.num_blocks, track_payloads=True)
        for s in self.symbols.values():
            if s.payload is not None:
                self.decoder.add_symbol(s)

    # -- receiving -----------------------------------------------------------

    def receive_data(self, msg: Packet) -> List[int]:
        """Ingest one data packet; returns newly recovered symbol ids.

        A payload that is not one agreed block long is refused here,
        before it can reach an XOR or the decoder.
        """
        if msg.payload is None or len(msg.payload) != self.params.block_size:
            raise ValueError(
                f"data payload must be {self.params.block_size} bytes "
                "(the agreed block size)"
            )
        recovered = self._peeler.receive(msg)
        for symbol_id in recovered:
            payload = self._peeler.payload_of(symbol_id)
            symbol = EncodedSymbol(
                symbol_id, self._structure.neighbours(symbol_id), payload
            )
            self.symbols[symbol_id] = symbol
            if payload is not None:
                self.decoder.add_symbol(symbol)
        return recovered

    @property
    def has_decoded(self) -> bool:
        return self.decoder.is_complete

    def try_finalize_decode(self) -> bool:
        """Attempt the Gaussian fallback to finish a stalled decode.

        Worth calling once the working set reaches the recovery target;
        returns True if the file is now fully decoded.
        """
        if not self.decoder.is_complete:
            self.decoder.solve_remaining()
        return self.decoder.is_complete

    def decoded_content(self, original_length: Optional[int] = None) -> bytes:
        """The reassembled file (raises if decoding is incomplete)."""
        return self.decoder.decoded_content(trim_to=original_length)

    # -- sending ---------------------------------------------------------------

    def fresh_data(self) -> DataMessage:
        """Sources: mint a brand-new encoded symbol."""
        if self._encoder is None:
            raise RuntimeError(f"{self.peer_id} holds only partial content")
        symbol = self._encoder.symbol(self._next_fresh)
        self._next_fresh += 1
        return DataMessage.encoded(symbol.symbol_id, symbol.payload)

    def data_for(self, packet: Packet) -> DataMessage:
        """Partial senders: a strategy's ``packet`` over held ids, with the
        XOR of its constituents' blocks (a blend of one goes encoded)."""
        ids = packet.constituent_ids or (packet.symbol_id,)
        payloads = [self.symbols[i].payload for i in ids]
        if any(p is None for p in payloads):
            raise RuntimeError("cannot recode payload-free symbols")
        if len(payloads) == 1:
            return DataMessage.encoded(next(iter(ids)), payloads[0])
        return DataMessage.recoded(
            ids, xor_payloads(payloads)  # type: ignore[arg-type]
        )
