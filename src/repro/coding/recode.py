"""Recoded-symbol generation (paper Section 5.4.2).

A partial sender blends encoded symbols it holds into *recoded* symbols:
``z = y_{i1} XOR ... XOR y_{id}`` with the constituent id list shipped in
the header.  Degree targeting follows the paper's representative
calculation: the probability that a degree-``d`` recoded symbol
immediately yields a new encoded symbol to a receiver that already holds a
fraction ``c`` of the sender's symbols is

    P(d) = C(cn, d-1) * (1-c)n / C(n, d)

which is maximised at ``d* = ceil((cn + 1) / (n (1 - c)))`` — growing with
correlation, exactly the paper's observation that "as recoded symbols are
received, correlation naturally increases and the target degree increases
accordingly".  Because the locally optimal degree risks fully redundant
symbols, the paper (and this implementation) uses ``d*`` as a *lower
limit* and draws degrees between it and the maximum allowable degree from
an irregular distribution.
"""

import math
import random
from typing import List, Optional, Sequence

from repro.coding.degree import DegreeDistribution
from repro.coding.symbol import EncodedSymbol, Packet, xor_payloads
from repro.seeding import default_rng, sample

#: Paper Section 6.1: "The degree distribution for recoding was created
#: similarly with a degree limit of 50."
DEFAULT_MAX_RECODE_DEGREE = 50


def optimal_recode_degree(working_set_size: int, correlation: float) -> int:
    """``d*``, the immediately-useful-probability-maximising degree.

    Args:
        working_set_size: ``n = |B_F|``, the sender's symbol count.
        correlation: ``c = |A_F ∩ B_F| / |B_F|`` as estimated from a
            sketch (0 = disjoint, 1 = identical).
    """
    if working_set_size < 1:
        raise ValueError("sender must hold at least one symbol")
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    if correlation >= 1.0:
        # Identical sets: nothing is useful; return the largest degree so
        # callers blend maximally (matching the paper's high-c behaviour).
        return working_set_size
    n = working_set_size
    d = math.ceil((correlation * n + 1) / (n * (1.0 - correlation)))
    return max(1, min(d, n))


def immediate_usefulness_probability(
    working_set_size: int, correlation: float, degree: int
) -> float:
    """Exact ``P(d)`` from the paper's representative calculation."""
    n = working_set_size
    shared = round(correlation * n)
    fresh = n - shared
    if degree > n or degree < 1:
        return 0.0
    num = math.comb(shared, degree - 1) * fresh
    den = math.comb(n, degree)
    return num / den if den else 0.0


class Recoder:
    """The one recoded-blend draw (Sections 5.4.2, 6.1 and 6.2).

    A blend's degree comes from Section 6.1's soliton-like distribution
    over the domain (:meth:`DegreeDistribution.recoding_soliton`: capped
    at ``max_degree`` and the domain size, at least ``min_degree``, the
    Section 5.4.2 lower limit), is shifted to ``floor(d / (1 - c))``
    (capped) under a Recode/MW ``degree_shift`` ``c > 0``, and that many
    distinct constituents are sampled.  ``Recoder(symbols)`` blends held
    symbols, XORing their payloads when all are present;
    :meth:`over_ids` blends a bare id domain, held without copying.
    ``domain`` may be replaced by another of the same size (Recode/BF's
    ``renew``); the distribution depends on the size alone.
    """

    def __init__(
        self,
        symbols: Sequence[EncodedSymbol],
        max_degree: int = DEFAULT_MAX_RECODE_DEGREE,
        min_degree: int = 1,
        degree_shift: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        held = list(symbols)
        self._payloads = {s.symbol_id: s.payload for s in held}
        rng = rng if rng is not None else default_rng("coding.recode")
        ids = [s.symbol_id for s in held]
        self._bind(ids, max_degree, min_degree, degree_shift, rng)

    @classmethod
    def over_ids(
        cls, domain: Sequence[int], rng: random.Random, degree_shift: float = 0.0
    ) -> "Recoder":
        """A payload-free recoder drawing blends of ``domain``'s ids."""
        recoder = cls.__new__(cls)
        recoder._payloads = None
        recoder._bind(domain, DEFAULT_MAX_RECODE_DEGREE, 1, degree_shift, rng)
        return recoder

    def _bind(self, domain, max_degree, min_degree, degree_shift, rng) -> None:
        if not domain:
            raise ValueError("cannot recode from an empty working set")
        if max_degree < 1:
            raise ValueError("max degree must be >= 1")
        if not 0.0 <= degree_shift < 1.0:
            raise ValueError("degree shift must lie in [0, 1)")
        self.domain = domain
        self.degree_shift = degree_shift
        self._rng = rng
        self._distribution = DegreeDistribution.recoding_soliton(
            len(domain), min_degree=min_degree, max_degree=max_degree
        )
        #: The largest blend drawn: the cap, clamped to the domain.
        self.max_degree = self._distribution.max_degree()

    def draw(self) -> List[int]:
        """The constituent ids of one blend, in draw order."""
        degree = self._distribution.sample(self._rng)
        if self.degree_shift:
            degree = min(self.max_degree, int(degree / (1.0 - self.degree_shift)))
        return sample(self._rng, self.domain, degree)

    def next_symbol(self) -> Packet:
        """Produce one recoded symbol."""
        chosen = self.draw()
        payload = None
        if self._payloads is not None:
            payloads = [self._payloads[i] for i in chosen]
            if all(p is not None for p in payloads):
                payload = xor_payloads(payloads)  # type: ignore[arg-type]
        return Packet.recoded(chosen, payload)
