"""Working-set layouts for the Section 6.3 experiments.

Two families:

* **Pair scenarios** (Figures 5 and 6): the receiver holds half the
  distinct symbols in the system; the sender holds the other half *plus*
  a fraction of the receiver's symbols chosen to hit a specified
  correlation.  "Compact" systems have ``1.1 n`` distinct symbols
  (barely more than recovery needs), "stretched" have ``1.5 n``.  No
  partial peer may hold more than ``n`` symbols, which restricts the
  achievable correlation range exactly as in the paper's plots
  (0-0.45 compact, 0-0.25 stretched).

* **Multi-sender scenarios** (Figures 7 and 8): every symbol is either
  shared by all peers or unique to exactly one peer; all peers hold
  equally many symbols.  Correlation is the shared fraction of a peer's
  set.

Correlation throughout is ``c = |A ∩ B| / |B|`` with A the receiver and
B a sender — B's fraction of redundant symbols.
"""

import random
from dataclasses import dataclass
from typing import List

from repro.delivery.working_set import WorkingSet
from repro.seeding import sample, shuffle

#: Distinct-symbol multipliers for the two Section 6.3 system shapes.
COMPACT_MULTIPLIER = 1.1
STRETCHED_MULTIPLIER = 1.5


@dataclass
class PairScenario:
    """Receiver/sender layout for Figures 5-6."""

    receiver: WorkingSet
    sender: WorkingSet
    target: int  # n — symbols needed for recovery, overhead included
    distinct_symbols: int
    correlation: float  # realised |A ∩ B| / |B|


@dataclass
class MultiSenderScenario:
    """Receiver plus m partial senders for Figures 7-8."""

    receiver: WorkingSet
    senders: List[WorkingSet]
    target: int
    distinct_symbols: int
    correlation: float  # realised shared fraction of each sender's set


def max_pair_correlation(multiplier: float) -> float:
    """Largest correlation a pair scenario supports (peer size cap = n).

    The sender holds ``m n / 2`` fresh symbols plus ``k`` of the
    receiver's; ``k <= n (1 - m/2)`` and ``c = k / (m n / 2 + k)`` give
    ``c_max = (2 - m) / (2 - m + m) = (2 - m) / 2``... realised directly
    below from the size cap.
    """
    half = multiplier / 2.0
    max_extra = 1.0 - half  # as a fraction of n
    if max_extra <= 0:
        return 0.0
    return max_extra / (half + max_extra)


def make_pair_scenario(
    target: int,
    multiplier: float,
    correlation: float,
    rng: random.Random,
) -> PairScenario:
    """Build the Figure 5/6 layout at a requested correlation.

    Args:
        target: ``n``, distinct symbols the receiver needs to finish.
        multiplier: distinct symbols in the system as a multiple of ``n``
            (1.1 compact, 1.5 stretched).
        correlation: requested ``|A ∩ B| / |B|``; must be achievable
            under the "no partial peer exceeds n symbols" cap.
        rng: source of randomness for symbol placement.

    Raises:
        ValueError: if the correlation is not achievable in this system.
    """
    if target < 4:
        raise ValueError("target too small to form a meaningful scenario")
    if multiplier < 1.0:
        raise ValueError("system must contain at least n distinct symbols")
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must lie in [0, 1)")
    distinct = int(round(multiplier * target))
    half = distinct // 2
    # Sender gets the other half plus k receiver symbols:
    # c = k / (distinct - half + k)  =>  k = c (distinct - half) / (1 - c)
    fresh = distinct - half
    overlap = int(round(correlation * fresh / (1.0 - correlation)))
    if fresh + overlap > target:
        raise ValueError(
            f"correlation {correlation} requires the sender to hold "
            f"{fresh + overlap} > n = {target} symbols; out of range for "
            f"multiplier {multiplier} (max ≈ {max_pair_correlation(multiplier):.3f})"
        )
    overlap = min(overlap, half)
    ids = list(range(distinct))
    shuffle(rng, ids)
    receiver_ids = ids[:half]
    sender_ids = ids[half:] + sample(rng, receiver_ids, overlap)
    realised = overlap / (fresh + overlap) if (fresh + overlap) else 0.0
    return PairScenario(
        receiver=WorkingSet(receiver_ids),
        sender=WorkingSet(sender_ids),
        target=target,
        distinct_symbols=distinct,
        correlation=realised,
    )


def make_multi_sender_scenario(
    target: int,
    multiplier: float,
    correlation: float,
    num_senders: int,
    rng: random.Random,
) -> MultiSenderScenario:
    """Build the Figure 7/8 layout: shared core + per-peer unique symbols.

    Every peer (receiver included) holds ``shared + unique`` symbols where
    ``shared / (shared + unique) = correlation``.  The system's distinct
    count is ``shared + (num_senders + 1) * unique``, scaled so it equals
    ``multiplier * target``.
    """
    if num_senders < 1:
        raise ValueError("need at least one sender")
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must lie in [0, 1)")
    distinct = int(round(multiplier * target))
    peers = num_senders + 1
    # distinct = peer_size * (c + peers * (1 - c))
    denom = correlation + peers * (1.0 - correlation)
    peer_size = int(distinct / denom)
    if peer_size < 1:
        raise ValueError("system too small for the requested layout")
    shared_count = int(round(correlation * peer_size))
    unique_count = peer_size - shared_count
    ids = list(range(distinct))
    shuffle(rng, ids)
    shared = ids[:shared_count]
    cursor = shared_count
    sets: List[WorkingSet] = []
    for _ in range(peers):
        unique = ids[cursor : cursor + unique_count]
        cursor += unique_count
        sets.append(WorkingSet(shared + unique))
    reachable = shared_count + peers * unique_count
    if reachable < target:
        raise ValueError(
            f"layout places only {reachable} distinct symbols across peers, "
            f"fewer than the target {target}; increase the multiplier"
        )
    realised = shared_count / peer_size if peer_size else 0.0
    return MultiSenderScenario(
        receiver=sets[0],
        senders=sets[1:],
        target=target,
        distinct_symbols=reachable,
        correlation=realised,
    )
