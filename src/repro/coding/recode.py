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
from typing import Iterable, List, Optional, Sequence

from repro.coding.degree import DegreeDistribution
from repro.coding.symbol import EncodedSymbol, Packet, xor_payloads
from repro.seeding import default_rng

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
    """Generates recoded symbols from a partial sender's working set.

    Args:
        symbols: the sender's encoded symbols (payloads optional).
        max_degree: cap on constituent-list length (paper: 50).
        correlation: estimated ``c`` from a sketch; ``None`` means fully
            oblivious recoding (the plain "Recode" strategy).
        minwise_shift: apply the Recode/MW degree shift
            ``d -> floor(d / (1-c))`` instead of raising the lower limit.
        rng: randomness source (seeded by callers for reproducibility).
    """

    def __init__(
        self,
        symbols: Sequence[EncodedSymbol],
        max_degree: int = DEFAULT_MAX_RECODE_DEGREE,
        correlation: Optional[float] = None,
        minwise_shift: bool = False,
        rng: Optional[random.Random] = None,
    ):
        if not symbols:
            raise ValueError("cannot recode from an empty working set")
        if max_degree < 1:
            raise ValueError("max degree must be >= 1")
        self._symbols: List[EncodedSymbol] = list(symbols)
        self.max_degree = min(max_degree, len(self._symbols))
        self.correlation = correlation
        self.minwise_shift = minwise_shift
        self._rng = rng if rng is not None else default_rng("coding.recode")

        if correlation is not None and not minwise_shift:
            lower = min(
                optimal_recode_degree(len(self._symbols), correlation),
                self.max_degree,
            )
        else:
            lower = 1
        self._distribution = DegreeDistribution.recoding(lower, self.max_degree)

    def _draw_degree(self) -> int:
        degree = self._distribution.sample(self._rng)
        if self.minwise_shift and self.correlation is not None:
            degree = self._distribution.shifted_for_correlation(
                degree, min(self.correlation, 0.999)
            )
        return min(degree, len(self._symbols))

    def next_symbol(self) -> Packet:
        """Produce one recoded symbol."""
        degree = self._draw_degree()
        chosen = self._rng.sample(self._symbols, degree)
        payloads = [s.payload for s in chosen]
        payload = None
        if all(p is not None for p in payloads):
            payload = xor_payloads(payloads)  # type: ignore[arg-type]
        return Packet.recoded((s.symbol_id for s in chosen), payload)

    def stream(self) -> Iterable[Packet]:
        """Endless recoded-symbol stream."""
        while True:
            yield self.next_symbol()
