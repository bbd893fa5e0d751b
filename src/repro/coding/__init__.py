"""Sparse parity-check erasure codes and recoding (paper Section 5.4).

The digital-fountain substrate everything else rides on:

* :class:`DegreeDistribution` — ideal/robust soliton and the paper's
  heavy-tail heuristic (Section 6.1: average degree ~11, decoding
  overhead ~7%), plus Section 6.1's capped recoding distribution.
* :class:`EncodedSymbol` / :class:`Packet` — a symbol with its
  source-block list, and the one transmission type: a symbol id or the
  constituent-id list of a recoded blend, with ``wire_bytes()``.
* :class:`LTEncoder` — memoryless encoder: symbol ``i``'s neighbour set is
  a pure function of ``(seed, i)``, so independently seeded fountains are
  uncorrelated (the paper's *additivity*) while a shared seed gives all
  peers a common symbol universe keyed by ``symbol_id``.
* :class:`Recoder` / :class:`RecodedPeeler` — Section 5.4.2: partial
  senders blend received symbols into recoded symbols (the recoder is
  the one draw every strategy and protocol peer uses); receivers peel
  recoded symbols back to encoded symbols, then decode normally.  The
  peeler is the one implementation of the substitution rule of [16]
  and the one ingest (:meth:`RecodedPeeler.receive`), and it peels
  into a set its owner already holds
  (:meth:`RecodedPeeler.into`) or into a private one (``known_ids=``).
* :class:`PeelingDecoder` — that same peeler run over source-block
  indices, plus completion, content reassembly and the Gaussian tail.
"""

from repro.coding.degree import DegreeDistribution
from repro.coding.symbol import EncodedSymbol, Packet, xor_payloads
from repro.coding.encoder import LTEncoder
from repro.coding.decoder import PeelingDecoder
from repro.coding.recode import Recoder, optimal_recode_degree
from repro.coding.peeler import RecodedPeeler

__all__ = [
    "DegreeDistribution",
    "EncodedSymbol",
    "Packet",
    "xor_payloads",
    "LTEncoder",
    "PeelingDecoder",
    "Recoder",
    "RecodedPeeler",
    "optimal_recode_degree",
]
