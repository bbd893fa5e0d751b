"""Memoryless LT-style encoder (digital fountain).

Section 5.4.1: "an encoding is a memoryless encoding if the random subset
of source blocks used to produce each encoding symbol is generated
identically and independently from the same distribution."  We realise
memorylessness by deriving each symbol's degree and neighbour set from a
PRNG seeded with ``(stream_seed, symbol_id)``:

* A full sender can regenerate any symbol from its id alone — encoding is
  *stateless* and the stream *time-invariant* (Section 2.3).
* Two encoders with the same ``stream_seed`` define the same symbol
  universe, so a symbol id is a globally meaningful working-set key.
* Encoders with different seeds are uncorrelated fountains — the
  *additivity* property for parallel downloads from full senders.
"""

import random
from typing import Iterator, List, Optional, Sequence

from repro.coding.degree import DegreeDistribution
from repro.coding.symbol import EncodedSymbol, xor_payloads
from repro.hashing.mix import mix64
from repro.seeding import sample


class LTEncoder:
    """Produces :class:`EncodedSymbol` streams from source blocks.

    Args:
        num_blocks: ``l``, the number of source blocks.
        distribution: degree distribution; defaults to the heavy-tail
            heuristic of Section 6.1.
        stream_seed: identifies the fountain; symbols are a pure function
            of ``(stream_seed, symbol_id)``.
        source_blocks: optional actual content (equal-length ``bytes``).
            Omit for identity-only simulation.
    """

    def __init__(
        self,
        num_blocks: int,
        distribution: Optional[DegreeDistribution] = None,
        stream_seed: int = 0,
        source_blocks: Optional[Sequence[bytes]] = None,
    ):
        if num_blocks < 1:
            raise ValueError("need at least one source block")
        if source_blocks is not None:
            if len(source_blocks) != num_blocks:
                raise ValueError(
                    f"got {len(source_blocks)} blocks, expected {num_blocks}"
                )
            lengths = {len(b) for b in source_blocks}
            if len(lengths) > 1:
                raise ValueError("source blocks must be fixed-length")
        self.num_blocks = num_blocks
        self.distribution = distribution or DegreeDistribution.heavy_tail_heuristic(
            num_blocks
        )
        if self.distribution.max_degree() > num_blocks:
            raise ValueError("degree distribution exceeds the block count")
        self.stream_seed = stream_seed
        self.source_blocks = list(source_blocks) if source_blocks is not None else None

    @classmethod
    def from_content(
        cls,
        content: bytes,
        block_size: int,
        distribution: Optional[DegreeDistribution] = None,
        stream_seed: int = 0,
    ) -> "LTEncoder":
        """Split ``content`` into ``block_size`` chunks (zero-padded) and encode.

        This mirrors the paper's setup: "A 32MB test file was divided into
        23,968 source blocks of 1400 bytes".
        """
        if block_size < 1:
            raise ValueError("block size must be positive")
        if not content:
            raise ValueError("content must be non-empty")
        blocks: List[bytes] = []
        for off in range(0, len(content), block_size):
            chunk = content[off : off + block_size]
            if len(chunk) < block_size:
                chunk = chunk + b"\x00" * (block_size - len(chunk))
            blocks.append(chunk)
        return cls(
            len(blocks),
            distribution=distribution,
            stream_seed=stream_seed,
            source_blocks=blocks,
        )

    # -- symbol generation ------------------------------------------------

    def neighbours(self, symbol_id: int) -> frozenset:
        """The source-block subset for ``symbol_id`` (pure function)."""
        if symbol_id < 0:
            raise ValueError("symbol ids are non-negative")
        rng = random.Random(mix64(symbol_id, self.stream_seed))
        degree = self.distribution.sample(rng)
        return frozenset(sample(rng, range(self.num_blocks), degree))

    def symbol(self, symbol_id: int) -> EncodedSymbol:
        """Materialise one encoded symbol (with payload if content loaded)."""
        indices = self.neighbours(symbol_id)
        payload = None
        if self.source_blocks is not None:
            payload = xor_payloads(self.source_blocks[i] for i in sorted(indices))
        return EncodedSymbol(symbol_id, indices, payload)

    def stream(self, start_id: int = 0) -> Iterator[EncodedSymbol]:
        """Endless encoding stream — the digital fountain."""
        symbol_id = start_id
        while True:
            yield self.symbol(symbol_id)
            symbol_id += 1

    def symbols(self, ids: Sequence[int]) -> List[EncodedSymbol]:
        """Materialise a batch of symbols by id."""
        return [self.symbol(i) for i in ids]
