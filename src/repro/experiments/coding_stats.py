"""Section 6.1 coding-parameter reproduction.

The paper: "The degree distribution used had an average degree of 11 for
the encoded symbols and average decoding overhead of 6.8%."  This runner
measures both for our heavy-tail heuristic (and any other distribution)
at a configurable block count.
"""

import random
from dataclasses import dataclass
from typing import Optional

from repro.api.spec import Bound, check_value
from repro.coding import DegreeDistribution, LTEncoder, PeelingDecoder


@dataclass
class CodingStats:
    """Measured code parameters for one configuration."""

    num_blocks: int
    average_degree: float
    decoding_overhead: float  # mean of (symbols needed / blocks) - 1
    overhead_std: float
    trials: int


def run_coding_stats(
    num_blocks: int = 2_000,
    trials: int = 5,
    distribution: Optional[DegreeDistribution] = None,
    seed: int = 3,
) -> CodingStats:
    """Measure average degree and decoding overhead empirically.

    Identity-only decoding (no payload XOR) — overhead is a property of
    the symbol/block bipartite graph, not of the payload bytes.
    """
    check_value("run_coding_stats.trials", trials, int, Bound(ge=1))
    distribution = distribution or DegreeDistribution.heavy_tail_heuristic(num_blocks)
    overheads = []
    for t in range(trials):
        encoder = LTEncoder(
            num_blocks, distribution=distribution, stream_seed=seed + t
        )
        decoder = PeelingDecoder(num_blocks, track_payloads=False)
        used = 0
        for symbol in encoder.stream():
            decoder.add_symbol(symbol)
            used += 1
            if decoder.is_complete:
                break
            if used > 3 * num_blocks:  # pathological distribution guard
                break
        overheads.append(used / num_blocks - 1.0)
    mean = sum(overheads) / len(overheads)
    var = sum((o - mean) ** 2 for o in overheads) / len(overheads)
    return CodingStats(
        num_blocks=num_blocks,
        average_degree=distribution.mean(),
        decoding_overhead=mean,
        overhead_std=var ** 0.5,
        trials=trials,
    )
