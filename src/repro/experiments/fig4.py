"""Figure 4 reproductions: approximate reconciliation tree accuracy.

The paper's setup (Section 5.3 / Figure 4): peer B holds a set with ``d``
elements peer A lacks; accuracy is the fraction of those differences B's
search finds using A's ART summary.  Figure 4(a) sweeps the leaf/internal
bit split at 8 total bits per element for correction levels 0-5;
Figure 4(b) tabulates accuracy for 2/4/6/8 bits per element under the
*optimal* split; Figure 4(c) compares the Bloom filter and the ART at 8
bits per element on size, accuracy, and search cost.
"""

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.api.spec import Bound, check_value
from repro.art.search import find_difference
from repro.art.tree import ReconciliationTrie
from repro.reconcile import build_summary
from repro.seeding import randbelow, sample

#: Figure 4 experiment scale: sets of 10,000 elements differing in ~100 —
#: the "less than 1% of symbols useful" regime ARTs were designed for.
DEFAULT_SET_SIZE = 10_000
DEFAULT_DIFFERENCES = 100
CORRECTION_LEVELS = (0, 1, 2, 3, 4, 5)


@dataclass
class ARTAccuracyPoint:
    """One measured cell of Figure 4."""

    bits_per_element: int
    leaf_bits: float
    correction: int
    accuracy: float
    nodes_visited: float
    summary_bytes: int


def _check_args(
    where: str, set_size: int, differences: int, trials: int, least_differences: int = 0
) -> None:
    """Refuse a run ``_make_sets`` cannot honour or that averages nothing."""
    check_value(
        f"{where}.differences", differences, int, Bound(ge=least_differences, le=set_size)
    )
    check_value(f"{where}.trials", trials, int, Bound(ge=1))


def _make_sets(
    set_size: int, differences: int, rng: random.Random
) -> Tuple[List[int], List[int]]:
    """A/B sets where B holds ``differences`` elements A lacks."""
    universe = 1 << 40
    common = sample(rng, range(universe), set_size)
    extra = []
    seen = set(common)
    while len(extra) < differences:
        x = randbelow(rng, universe)
        if x not in seen:
            seen.add(x)
            extra.append(x)
    set_a = common
    set_b = common[differences:] + extra  # same size, d differences each way
    return set_a, set_b


def _accuracy_for(
    set_a: Sequence[int],
    set_b: Sequence[int],
    bits_per_element: int,
    leaf_bits: float,
    correction: int,
    seed: int,
) -> Tuple[float, int, int]:
    """(accuracy, nodes visited, summary bytes) for one configuration."""
    art_a = build_summary(
        "art", set_a, bits_per_element=bits_per_element,
        leaf_bits_per_element=leaf_bits, seed=seed,
    )
    stats = find_difference(
        ReconciliationTrie(set_b, seed=seed), art_a, correction=correction
    )
    true_diff = set(set_b) - set(set_a)
    found = set(stats.differences) & true_diff
    accuracy = len(found) / len(true_diff) if true_diff else 1.0
    return accuracy, stats.nodes_visited, art_a.wire_bytes()


def run_fig4a(
    set_size: int = DEFAULT_SET_SIZE,
    differences: int = DEFAULT_DIFFERENCES,
    total_bits: int = 8,
    leaf_bit_choices: Sequence[float] = (1, 2, 3, 4, 5, 6, 7),
    corrections: Sequence[int] = CORRECTION_LEVELS,
    trials: int = 3,
    seed: int = 42,
) -> List[ARTAccuracyPoint]:
    """Figure 4(a): accuracy vs leaf-filter bits at fixed total budget."""
    _check_args("run_fig4a", set_size, differences, trials)
    rng = random.Random(seed)
    points: List[ARTAccuracyPoint] = []
    for leaf_bits in leaf_bit_choices:
        for correction in corrections:
            accs, visits, size = [], [], 0
            for t in range(trials):
                set_a, set_b = _make_sets(set_size, differences, rng)
                acc, nv, size = _accuracy_for(
                    set_a, set_b, total_bits, leaf_bits, correction, seed + t
                )
                accs.append(acc)
                visits.append(nv)
            points.append(
                ARTAccuracyPoint(
                    bits_per_element=total_bits,
                    leaf_bits=leaf_bits,
                    correction=correction,
                    accuracy=sum(accs) / len(accs),
                    nodes_visited=sum(visits) / len(visits),
                    summary_bytes=size,
                )
            )
    return points


def best_leaf_split(points: Sequence[ARTAccuracyPoint], correction: int) -> float:
    """The leaf-bit choice maximising accuracy at a correction level."""
    candidates = [p for p in points if p.correction == correction]
    if not candidates:
        raise ValueError(f"no points at correction {correction}")
    return max(candidates, key=lambda p: p.accuracy).leaf_bits


def run_fig4b(
    set_size: int = DEFAULT_SET_SIZE,
    differences: int = DEFAULT_DIFFERENCES,
    bits_choices: Sequence[int] = (2, 4, 6, 8),
    corrections: Sequence[int] = CORRECTION_LEVELS,
    trials: int = 3,
    seed: int = 42,
) -> Dict[Tuple[int, int], float]:
    """Figure 4(b): accuracy table, (correction, bits/element) -> accuracy.

    For each bits/element column the leaf/internal split is chosen per
    correction level by a small sweep — "the optimal distribution of bits
    between leaves and interior nodes".
    """
    _check_args("run_fig4b", set_size, differences, trials)
    rng = random.Random(seed)
    table: Dict[Tuple[int, int], float] = {}
    for bits in bits_choices:
        splits = [bits * f for f in (0.25, 0.5, 0.75)]
        for correction in corrections:
            best = 0.0
            for leaf_bits in splits:
                accs = []
                for t in range(trials):
                    set_a, set_b = _make_sets(set_size, differences, rng)
                    acc, _, _ = _accuracy_for(
                        set_a, set_b, bits, leaf_bits, correction, seed + t
                    )
                    accs.append(acc)
                best = max(best, sum(accs) / len(accs))
            table[(correction, bits)] = best
    return table


@dataclass
class StructureComparison:
    """One row of Figure 4(c)."""

    name: str
    size_bits_per_element: float
    accuracy: float
    search_seconds: float
    asymptotic: str


def run_fig4c(
    set_size: int = DEFAULT_SET_SIZE,
    differences: int = DEFAULT_DIFFERENCES,
    bits_per_element: int = 8,
    correction: int = 5,
    trials: int = 3,
    seed: int = 42,
) -> List[StructureComparison]:
    """Figure 4(c): Bloom filter vs ART at 8 bits per element."""
    _check_args("run_fig4c", set_size, differences, trials, least_differences=1)
    rng = random.Random(seed)
    bf_acc, bf_time = [], []
    art_acc, art_time = [], []
    for t in range(trials):
        set_a, set_b = _make_sets(set_size, differences, rng)
        true_diff = set(set_b) - set(set_a)

        bf = build_summary("bloom", set_a, bits_per_element=bits_per_element)
        start = time.perf_counter()
        found = bf.missing_from(set_b)
        bf_time.append(time.perf_counter() - start)
        bf_acc.append(len(set(found) & true_diff) / len(true_diff))

        art_a = build_summary(
            "art", set_a, bits_per_element=bits_per_element, seed=seed + t
        )
        trie_b = ReconciliationTrie(set_b, seed=seed + t)
        start = time.perf_counter()
        stats = find_difference(trie_b, art_a, correction=correction)
        art_time.append(time.perf_counter() - start)
        art_acc.append(len(set(stats.differences) & true_diff) / len(true_diff))
    return [
        StructureComparison(
            name="Bloom filter",
            size_bits_per_element=bits_per_element,
            accuracy=sum(bf_acc) / trials,
            search_seconds=sum(bf_time) / trials,
            asymptotic="O(n)",
        ),
        StructureComparison(
            name=f"A.R.T. (correction={correction})",
            size_bits_per_element=bits_per_element,
            accuracy=sum(art_acc) / trials,
            search_seconds=sum(art_time) / trials,
            asymptotic="O(d log n)",
        ),
    ]
