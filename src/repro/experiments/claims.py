"""The paper's claims as one executable table.

Every number or ordering the paper states that this repository checks is
one :class:`Claim` row in :data:`CLAIMS`: Section 4's 1 KB calling card,
Section 5.2's Bloom false-positive rates, Figure 4(a-c) (with the 24
printed cells of Figure 4(b)), Section 5's exact-vs-approximate
trade-off, Section 5.4's recoding arithmetic and degree ablation,
Section 6.1's code parameters, Section 6.3's modelling assumptions,
Figure 1 and the Figure 5-8 orderings.

A row's ``measure`` reads the runs an evaluation shares (the figure
runners of this package, called as they are, plus a few direct library
measurements); each run happens at most once per :func:`evaluate`.  It
returns an :class:`Observed`: the value the row prints, taken from the
runner's own numbers, and one sample per replicate seed.  ``expect``
judges one sample, so a Figure 5-8 row reports "holds in k of n seeds"
over the campaign's replicate seeds; every other row has one sample.
Every verdict is deterministic: wall-clock time is never judged.

Print the table with ``python examples/reproduce_paper.py [--fast|--full]``.
"""

import dataclasses
import math
import random
import time
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.analysis import expected_draws_to_collect, harmonic
from repro.api import build, specs
from repro.art.search import ExactTreeSummary, find_difference
from repro.art.tree import ReconciliationTrie
from repro.coding import (
    DegreeDistribution,
    LTEncoder,
    Packet,
    PeelingDecoder,
    RecodedPeeler,
    Recoder,
)
from repro.coding.recode import (
    DEFAULT_MAX_RECODE_DEGREE,
    immediate_usefulness_probability,
    optimal_recode_degree,
)
from repro.delivery.receiver import DEFAULT_DECODING_OVERHEAD
from repro.experiments.coding_stats import run_coding_stats
from repro.experiments.fig4 import run_fig4a, run_fig4b, run_fig4c
from repro.experiments.fig5678 import DeliveryPoint, run_fig5, run_fig6, run_fig78
from repro.experiments.sketch_accuracy import run_sketch_accuracy
from repro.filters import BloomFilter, false_positive_rate
from repro.hashing.permutations import PermutationFamily
from repro.protocol import CodeParameters
from repro.reconcile import build_summary
from repro.seeding import randbelow, sample
from repro.sketches import MinwiseSketch

#: Run sizes: ``art_n`` / ``art_d`` size the Figure 4 and Section 4-5
#: sets, ``target`` the Figure 5-8 transfers, ``trials`` the replicates
#: (the Figure 5-8 seeds), ``code_blocks`` the Section 6.1 code.
SCALES: Dict[str, Dict[str, int]] = {
    "fast": dict(art_n=1_000, art_d=40, target=300, trials=1, code_blocks=500),
    "default": dict(art_n=5_000, art_d=100, target=1_000, trials=3, code_blocks=4_000),
    "full": dict(art_n=10_000, art_d=100, target=2_000, trials=5, code_blocks=23_968),
}

#: Figure 4(b) as printed: (correction, bits per element) -> accuracy at
#: n = 10,000 and d = 100 with the optimal leaf/interior split.
PAPER_FIG4B = {
    (0, 2): 0.0000, (0, 4): 0.0087, (0, 6): 0.0997, (0, 8): 0.2540,
    (1, 2): 0.0063, (1, 4): 0.1615, (1, 6): 0.3950, (1, 8): 0.6246,
    (2, 2): 0.0530, (2, 4): 0.3492, (2, 6): 0.6243, (2, 8): 0.8109,
    (3, 2): 0.1323, (3, 4): 0.4800, (3, 6): 0.7424, (3, 8): 0.8679,
    (4, 2): 0.2029, (4, 4): 0.5538, (4, 6): 0.7966, (4, 8): 0.9061,
    (5, 2): 0.2677, (5, 4): 0.6165, (5, 6): 0.8239, (5, 8): 0.9234,
}

#: How far a measured Figure 4(b) cell may sit from the printed one.
FIG4B_TOLERANCE = 0.15


class Observed(NamedTuple):
    """What a row measured: the value it prints and one sample per seed."""

    ours: Any
    samples: Tuple[Any, ...]


class Claim(NamedTuple):
    """One row: what the paper says, how we measure it, when it holds."""

    id: str
    section: str
    statement: str
    paper: str
    measure: Callable[["Measurements"], Observed]
    expect: Callable[[Any], bool]


class Verdict(NamedTuple):
    """One evaluated row: the claim holds in ``held`` of ``seeds`` samples."""

    claim: Claim
    ours: Any
    held: int
    seeds: int
    seconds: float

    @property
    def holds(self) -> bool:
        return self.held == self.seeds


# -- the shared runs --------------------------------------------------------


def _pair(n: int, d: int, seed: int) -> Tuple[List[int], List[int]]:
    """``(a, b)`` of size ``n`` each; ``b`` holds ``d`` keys ``a`` lacks."""
    rng = random.Random(seed)
    common = sample(rng, range(1 << 40), n)
    extra = sample(rng, range(1 << 41, 1 << 42), d)
    return common, common[d:] + extra


def _figure1(s: Dict[str, int]) -> Dict[str, Any]:
    """Figure 1's layout as a tree (1a) and as a collaborative overlay (1c)."""

    def run(**kwargs: Any) -> Any:
        spec = specs.figure1(target=300, seed=5, **kwargs)
        return build(spec).scenario.run(max_ticks=6_000)

    return {"tree": run(with_perpendicular=False), "collab": run()}


def _bloom_fp(s: Dict[str, int]) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """(bits/element, hashes) -> (analytic, measured) false-positive rate."""
    rates = {}
    for bits, k in ((4, 3), (8, 5)):
        rng = random.Random(bits)
        keys = sample(rng, range(1 << 40), 10_000)
        probes = sample(rng, range(1 << 41, 1 << 42), 30_000)
        bf = BloomFilter.for_elements(keys, bits_per_element=bits, k_hashes=k)
        measured = sum(1 for p in probes if p in bf) / len(probes)
        rates[(bits, k)] = (false_positive_rate(bf.m, len(keys), k), measured)
    return rates


def _minwise_entries(s: Dict[str, int]) -> Dict[int, float]:
    """Resemblance RMSE of a min-wise sketch per entry count."""
    size = 2 * s["art_n"] // 5
    universe = 1 << 32
    rmse = {}
    for entries in (16, 64, 128, 256):
        family = PermutationFamily(entries, universe, seed=7)
        rng = random.Random(entries)
        errors = []
        for _ in range(2 * s["trials"]):
            inter = size // 20 + randbelow(rng, size - 2 * (size // 20))
            pool = sample(rng, range(universe), 2 * size - inter)
            shared = pool[:inter]
            a = set(shared + pool[inter:size])
            b = set(shared + pool[size:])
            truth = len(a & b) / len(a | b)
            est = MinwiseSketch.build(a, family).estimate_resemblance(
                MinwiseSketch.build(b, family)
            )
            errors.append((est - truth) ** 2)
        rmse[entries] = math.sqrt(sum(errors) / len(errors))
    return rmse


def _reconciliation(s: Dict[str, int]) -> Dict[str, Tuple[int, float]]:
    """Exact and approximate reconciliation on one instance: name ->
    (wire bytes, share of the differences found)."""
    n, d = s["art_n"], s["art_d"] // 2
    set_a, set_b = _pair(n, d, seed=3)
    truth = set(set_b) - set(set_a)

    def found(keys: Any) -> float:
        return len(set(keys) & truth) / len(truth)

    summaries = {
        "hash-set": build_summary("hashset", set_a, seed=1),
        "char-poly": build_summary("cpi", set_a, max_discrepancy=2 * d + 10, seed=2),
        "bloom": build_summary("bloom", set_a, bits_per_element=8),
        "art": build_summary("art", set_a, bits_per_element=8, seed=5, correction=5),
    }
    return {
        name: (summary.wire_bytes(), found(summary.missing_from(set_b)))
        for name, summary in summaries.items()
    }


def _art_scaling(s: Dict[str, int]) -> List[Tuple[int, int]]:
    """(n, ART nodes visited) as n grows 16x at fixed d; Bloom scans n."""
    n0, d = 2 * s["art_n"] // 5, s["art_d"] // 2
    rows = []
    for n in (n0, 4 * n0, 16 * n0):
        set_a, set_b = _pair(n, d, seed=n)
        remote = ExactTreeSummary(ReconciliationTrie(set_a, seed=1))
        stats = find_difference(ReconciliationTrie(set_b, seed=1), remote, correction=0)
        rows.append((n, stats.nodes_visited))
    return rows


def _recode_useful_fraction(correlation: float, policy: str) -> float:
    """Useful share of recoded symbols a sender streams to a receiver
    already holding ``correlation`` of the sender's 400 symbols."""
    n_symbols, budget, seed = 400, 4_000, 1
    rng = random.Random(seed)
    sender = LTEncoder(5_000, stream_seed=seed).symbols(range(n_symbols))
    known = [s.symbol_id for s in sender[: int(correlation * n_symbols)]]
    if policy == "degree-1":
        recoder = Recoder(sender, max_degree=1, rng=rng)
    elif policy == "informed":
        d_star = optimal_recode_degree(n_symbols, correlation)
        recoder = Recoder(sender, min_degree=d_star, rng=rng)
    else:
        recoder = Recoder(sender, degree_shift=correlation, rng=rng)
    peeler = RecodedPeeler(known_ids=known)
    start, sent = peeler.known_count, 0
    while sent < budget and peeler.known_count < n_symbols:
        peeler.add_recoded(recoder.next_symbol())
        sent += 1
    return (peeler.known_count - start) / sent if sent else 0.0


def _recode_ablation(s: Dict[str, int]) -> Dict[Tuple[float, str], float]:
    """(correlation, policy) -> useful fraction, Section 5.4.2's regime."""
    return {
        (c, policy): _recode_useful_fraction(c, policy)
        for c in (0.5, 0.8)
        for policy in ("degree-1", "informed", "minwise-shift")
    }


#: Every run a row may read, by name; an evaluation runs each at most once.
_RUNS: Dict[str, Callable[[Dict[str, int]], Any]] = {
    "fig1": _figure1,
    "fig4a": lambda s: run_fig4a(
        set_size=s["art_n"], differences=s["art_d"], trials=s["trials"]
    ),
    "fig4b": lambda s: run_fig4b(
        set_size=s["art_n"], differences=s["art_d"], trials=s["trials"]
    ),
    "fig4c": lambda s: run_fig4c(
        set_size=s["art_n"], differences=s["art_d"], trials=s["trials"]
    ),
    "fig5": lambda s: run_fig5(
        target=s["target"], trials=s["trials"], workers=s["workers"]
    ),
    "fig6": lambda s: run_fig6(
        target=s["target"], trials=s["trials"], workers=s["workers"]
    ),
    "fig7": lambda s: run_fig78(
        2, target=s["target"], trials=s["trials"], workers=s["workers"]
    ),
    "fig8": lambda s: run_fig78(
        4, target=s["target"], trials=s["trials"], workers=s["workers"]
    ),
    "coding": lambda s: run_coding_stats(
        num_blocks=s["code_blocks"], trials=s["trials"]
    ),
    "ideal_soliton": lambda s: run_coding_stats(
        num_blocks=s["code_blocks"],
        trials=s["trials"],
        distribution=DegreeDistribution.ideal_soliton(s["code_blocks"]),
    ),
    "sketches": lambda s: {
        r.technique: r
        for r in run_sketch_accuracy(set_size=s["art_n"], trials=s["trials"])
    },
    "bloom_fp": _bloom_fp,
    "minwise_entries": _minwise_entries,
    "reconciliation": _reconciliation,
    "art_scaling": _art_scaling,
    "recode_ablation": _recode_ablation,
}


class Measurements:
    """The runs one evaluation shares, each made on first use."""

    def __init__(self, scale: Dict[str, int]):
        self.scale = scale
        self._done: Dict[str, Any] = {}

    def __getitem__(self, name: str) -> Any:
        if name not in self._done:
            self._done[name] = _RUNS[name](self.scale)
        return self._done[name]


# -- row helpers ------------------------------------------------------------


def _once(value_of: Callable[["Measurements"], Any]):
    """A row with one sample: the value is what it prints and judges."""

    def measure(m: Measurements) -> Observed:
        value = value_of(m)
        return Observed(value, (value,))

    return measure


def _fixed(value_of: Callable[[], Any]):
    """A scale-free row: its value needs no shared run."""
    return _once(lambda m: value_of())


def _seeded(run: str, observe: Callable[[Sequence[DeliveryPoint]], Any]):
    """A Figure 5-8 row: ``observe`` prints the runner's seed means and
    is judged on each replicate seed's own points."""

    def measure(m: Measurements) -> Observed:
        points = m[run]
        seeds = len(points[0].seeds)
        samples = tuple(
            observe([dataclasses.replace(p, value=p.seeds[t]) for p in points])
            for t in range(seeds)
        )
        return Observed(observe(points), samples)

    return measure


def _series(points: Sequence[DeliveryPoint], scenario: str, strategy: str) -> List[float]:
    """One curve's values in correlation order."""
    curve = [p for p in points if p.scenario == scenario and p.strategy == strategy]
    return [p.value for p in sorted(curve, key=lambda p: p.correlation)]


def _mean(values: Sequence[float]) -> float:
    """The mean, NaN-poisoned: an incomplete cell fails an ordering."""
    return sum(values) / len(values)


def _finite(values: Sequence[float]) -> List[float]:
    """The completed cells' values: only those have a rate to bound."""
    return [v for v in values if not math.isnan(v)]


def _max_finite(values: Sequence[float]) -> float:
    return max(_finite(values), default=math.nan)


def _worst_gap(lower: Sequence[float], upper: Sequence[float]) -> float:
    """max(lower - upper) over the curve, NaN if any point is missing."""
    gaps = [lo - up for lo, up in zip(lower, upper)]
    return math.nan if any(math.isnan(g) for g in gaps) else max(gaps)


def _all_values(points: Sequence[DeliveryPoint]) -> List[float]:
    return [p.value for p in points]


# -- the rows ---------------------------------------------------------------


def _section4() -> List[Claim]:
    def match_rate() -> Tuple[float, float]:
        rng = random.Random(1)
        universe = 1 << 16
        a = set(sample(rng, range(universe), 200))
        b = set(list(a)[:100]) | set(sample(rng, range(universe), 100))
        family = PermutationFamily(512, universe, seed=5)
        sa, sb = sorted(a), sorted(b)
        matches = sum(1 for perm in family if perm.min_over(sa) == perm.min_over(sb))
        return matches / len(family), len(a & b) / len(a | b)

    def union_min_violations() -> int:
        rng = random.Random(2)
        universe = 1 << 16
        a = sorted(sample(rng, range(universe), 50))
        b = sorted(sample(rng, range(universe), 50))
        union = sorted(set(a) | set(b))
        return sum(
            1
            for perm in PermutationFamily(64, universe, seed=6)
            if perm.min_over(a) == perm.min_over(b)
            and perm.min_over(a) != perm.min_over(union)
        )

    rows = [
        Claim("s4-keys-per-packet", "§4",
              "a 1 KB packet holds roughly 128 64-bit keys", "128",
              _fixed(lambda: 1024 // (64 // 8)), lambda x: x == 128),
        Claim("s4-minwise-match-is-resemblance", "§4",
              "min-wise minima match with probability r = |A∩B|/|A∪B| "
              "(match rate / r, 512 permutations)", "r",
              _fixed(match_rate), lambda x: abs(x[0] - x[1]) <= 0.07),
        Claim("s4-matching-minimum-is-union-minimum", "§4",
              "when the two minima match, x = min(A∪B) (violations)", "0",
              _fixed(union_min_violations), lambda x: x == 0),
        Claim("s4-calling-card-bytes", "§4",
              "every estimator fits one 1 KB calling card (largest card, bytes)",
              "1024", _once(lambda m: max(r.packet_bytes for r in m["sketches"].values())),
              lambda x: x <= 1024),
    ]
    for technique in ("minwise", "random-sample", "mod-k"):
        rows.append(Claim(
            f"s4-{technique}-accuracy", "§4",
            f"{technique} containment estimates are 'sufficiently accurate' "
            "(RMSE < 0.1 / |bias| < 0.06)", "accurate",
            _once(lambda m, t=technique: (m["sketches"][t].rmse, m["sketches"][t].bias)),
            lambda x: x[0] < 0.1 and abs(x[1]) < 0.06,
        ))
    rows.append(Claim(
        "s4-minwise-entries", "§4",
        "min-wise resemblance RMSE stays < 0.3 from 16 to 256 entries",
        "1/sqrt(k)",
        _once(lambda m: tuple(m["minwise_entries"].values())),
        lambda x: max(x) < 0.3,
    ))
    return rows


def _section52() -> List[Claim]:
    def ten_thousand_packets() -> Tuple[int, float]:
        bf = BloomFilter.for_elements(range(10_000), bits_per_element=4, k_hashes=3)
        return bf.m, bf.size_bytes() / 1024

    def useless_sends() -> int:
        rng = random.Random(3)
        a_set = set(sample(rng, range(1 << 30), 3000))
        bf = BloomFilter.for_elements(a_set, bits_per_element=6)
        b_set = set(sample(rng, sorted(a_set), 1500)) | set(
            sample(rng, range(1 << 31, 1 << 32), 1500)
        )
        return sum(1 for s in bf.missing_from(b_set) if s in a_set)

    rows = []
    for bits, k, paper in ((4, 3, 14.7), (8, 5, 2.2)):
        where = f"{bits} bits/element, {k} hashes"
        rows += [
            Claim(f"s52-fp-{bits}b{k}h-analytic", "§5.2",
                  f"false-positive rate at {where} (analytic, %)", f"{paper} %",
                  _once(lambda m, key=(bits, k): 100 * m["bloom_fp"][key][0]),
                  lambda x, p=paper: abs(x - p) <= 0.1),
            Claim(f"s52-fp-{bits}b{k}h-measured", "§5.2",
                  f"false-positive rate at {where} (30k probes, %)", f"{paper} %",
                  _once(lambda m, key=(bits, k): 100 * m["bloom_fp"][key][1]),
                  lambda x, p=paper: abs(x - p) < 2.0),
        ]
    rows += [
        Claim("s52-10k-packets-in-5kb", "§5.2",
              "10,000 packets at 4 bits/element: 40,000 bits in five 1 KB packets "
              "(bits / KB)", "40000 / 5",
              _fixed(ten_thousand_packets), lambda x: x[0] == 40_000 and x[1] <= 5),
        Claim("s52-one-sided-error", "§5.2",
              "a Bloom filter never makes B send A a useless symbol (useless sends)",
              "0", _fixed(useless_sends), lambda x: x == 0),
    ]
    return rows


def _section5() -> List[Claim]:
    def rec(m: Measurements, name: str) -> Tuple[int, float]:
        return m["reconciliation"][name]

    return [
        Claim("s5-hashset-exact", "§5",
              "a hash-set summary finds > 98 % of the differences", "exact",
              _once(lambda m: rec(m, "hash-set")[1]), lambda x: x > 0.98),
        Claim("s5-cpi-exact", "§5",
              "characteristic-polynomial reconciliation finds every difference",
              "exact", _once(lambda m: rec(m, "char-poly")[1]), lambda x: x == 1.0),
        Claim("s5-cpi-smaller-than-hashset", "§5",
              "CPI's O(d) sketch undercuts the O(n) hash set (bytes: CPI / hash set)",
              "O(d) vs O(n)",
              _once(lambda m: (rec(m, "char-poly")[0], rec(m, "hash-set")[0])),
              lambda x: x[0] < x[1]),
        Claim("s5-bloom-approximate", "§5",
              "an 8-bit/element Bloom filter finds > 90 % of the differences",
              "approximate", _once(lambda m: rec(m, "bloom")[1]), lambda x: x > 0.9),
        Claim("s5-art-approximate", "§5",
              "an 8-bit/element ART (correction 5) finds > 70 % of the differences",
              "approximate", _once(lambda m: rec(m, "art")[1]), lambda x: x > 0.7),
    ]


def _figure4() -> List[Claim]:
    def correction_gain(points: Sequence[Any]) -> float:
        by = {(p.leaf_bits, p.correction): p.accuracy for p in points}
        top = max(p.correction for p in points)
        return min(by[(leaf, top)] - by[(leaf, 0)] for leaf, _ in by)

    def accuracy(m: Measurements, structure: str) -> float:
        (row,) = [r for r in m["fig4c"] if r.name.startswith(structure)]
        return row.accuracy

    def art_visit_growth(m: Measurements) -> Tuple[float, float]:
        rows = m["art_scaling"]
        return rows[-1][1] / rows[0][1], rows[-1][0] / rows[0][0]

    rows = [
        Claim("fig4a-correction-helps", "Fig. 4a",
              "correction 5 finds at least as much as none at every leaf split "
              "(smallest gain)", "monotone",
              _once(lambda m: correction_gain(m["fig4a"])), lambda x: x >= 0),
    ]
    for (c, b), paper in sorted(PAPER_FIG4B.items()):
        rows.append(Claim(
            f"fig4b-c{c}-b{b}", "Fig. 4b",
            f"accuracy at correction {c}, {b} bits/element "
            f"(within {FIG4B_TOLERANCE} of the paper)", f"{paper:.4f}",
            _once(lambda m, key=(c, b): m["fig4b"][key]),
            lambda x, p=paper: abs(x - p) < FIG4B_TOLERANCE,
        ))
    rows += [
        Claim("fig4b-more-bits-help", "Fig. 4b",
              "at correction 5, 8 bits/element beat 2 (8 / 2 bits)", "0.923 / 0.268",
              _once(lambda m: (m["fig4b"][(5, 8)], m["fig4b"][(5, 2)])),
              lambda x: x[0] >= x[1]),
        Claim("fig4b-more-correction-helps", "Fig. 4b",
              "at 8 bits/element, correction 5 beats none (5 / 0)", "0.923 / 0.254",
              _once(lambda m: (m["fig4b"][(5, 8)], m["fig4b"][(0, 8)])),
              lambda x: x[0] >= x[1]),
        Claim("fig4c-bloom-accuracy", "Fig. 4c",
              "a Bloom filter at 8 bits/element finds > 94 % of the differences",
              "98 %", _once(lambda m: accuracy(m, "Bloom filter")), lambda x: x > 0.94),
        Claim("fig4c-art-accuracy", "Fig. 4c",
              "an ART at 8 bits/element (correction 5) finds 75-100 %", "92 %",
              _once(lambda m: accuracy(m, "A.R.T.")), lambda x: 0.75 <= x <= 1.0),
        Claim("fig4c-bloom-beats-art", "Fig. 4c",
              "at equal size the Bloom filter is the more accurate (Bloom / ART)",
              "98 % / 92 %",
              _once(lambda m: (accuracy(m, "Bloom filter"), accuracy(m, "A.R.T."))),
              lambda x: x[0] > x[1]),
        Claim("fig4c-art-search-sublinear", "Fig. 4c",
              "ART search is O(d log n), a Bloom scan O(n): as n grows 16x, "
              "ART node visits grow < 1/3 as fast (visit growth / n growth)",
              "O(d log n) vs O(n)",
              _once(art_visit_growth), lambda x: x[0] < x[1] / 3),
    ]
    return rows


def _section54() -> List[Claim]:
    def gigabyte_summary() -> int:
        bf = BloomFilter.for_elements(range(20_000), bits_per_element=4, k_hashes=3)
        return bf.size_bytes()

    def substitution_example() -> Tuple[int, ...]:
        p = RecodedPeeler()
        for ids in ([13], [5, 8], [5, 13]):
            p.add_recoded(Packet.recoded(frozenset(ids)))
        return tuple(sorted(p.known_ids))

    def degree_work() -> Tuple[float, float]:
        enc = LTEncoder(400, stream_seed=4)
        dec = PeelingDecoder(400, track_payloads=False)
        total_degree = used = 0
        for symbol in enc.stream():
            dec.add_symbol(symbol)
            total_degree += symbol.degree
            used += 1
            if dec.is_complete:
                break
        return total_degree / used, enc.distribution.mean()

    rows = [
        Claim("s54-summary-per-20k-symbols", "§5.4",
              "a summary on the order of 10 KB: 20k symbols at 4 bits/element "
              "(bytes)", "10 KB",
              _fixed(gigabyte_summary), lambda x: abs(x - 10_000) <= 100),
        Claim("s54-decode-work-is-average-degree", "§5.4",
              "decoding work tracks the average degree, not the maximum "
              "(degree per symbol / mean degree)", "average",
              _fixed(degree_work), lambda x: abs(x[0] - x[1]) <= 0.15 * x[1]),
        Claim("s542-substitution-example", "§5.4.2",
              "z1=y13, z2=y5⊕y8, z3=y5⊕y13 recover y5, y8, y13", "5, 8, 13",
              _fixed(substitution_example), lambda x: x == (5, 8, 13)),
        Claim("s542-degree-1-redundant-with-q", "§5.4.2",
              "a random degree-1 recode is useful with probability 1 - q "
              "(n = 400, q = 0.6)", "0.4",
              _fixed(lambda: immediate_usefulness_probability(400, 0.6, 1)),
              lambda x: math.isclose(x, 0.4, rel_tol=1e-6)),
        Claim("s542-degree-rises-with-correlation", "§5.4.2",
              "the target recode degree rises with correlation (c = 0, 0.1, ..., 0.9)",
              "increasing",
              _fixed(lambda: tuple(optimal_recode_degree(500, c / 10) for c in range(10))),
              lambda x: list(x) == sorted(x)),
    ]
    for c in (0.5, 0.8):
        for policy in ("informed", "minwise-shift"):
            rows.append(Claim(
                f"s542-{policy}-beats-degree-1-c{c}", "§5.4.2",
                f"at correlation {c} {policy} recoding beats degree-1 recodes "
                "(useful fraction)", "degree-1 useful w.p. 1 - c",
                _once(lambda m, key=(c, policy): (
                    m["recode_ablation"][key], m["recode_ablation"][(key[0], "degree-1")]
                )),
                lambda x: x[0] > x[1],
            ))
    return rows


def _section6() -> List[Claim]:
    def coupon() -> Tuple[float, float, float]:
        n = 1000
        return expected_draws_to_collect(n, n, n) / n, harmonic(n), math.log(n)

    return [
        Claim("s61-average-degree", "§6.1",
              "the degree distribution's average degree", "11",
              _once(lambda m: m["coding"].average_degree), lambda x: 8 <= x <= 13),
        Claim("s61-decoding-overhead", "§6.1",
              "average decoding overhead (< 0.15)", "0.068",
              _once(lambda m: m["coding"].decoding_overhead), lambda x: x < 0.15),
        Claim("s61-ideal-soliton-fragile", "§6.1",
              "the ideal soliton alone needs more symbols than blocks (overhead)",
              "—", _once(lambda m: m["ideal_soliton"].decoding_overhead),
              lambda x: x > 0),
        Claim("s63-coupon-collector-log-factor", "§6.3",
              "random selection needs O(log n) symbols per useful one "
              "(per symbol / H_n / ln n, n = 1000)", "O(log n)",
              _fixed(coupon),
              lambda x: math.isclose(x[0], x[1], rel_tol=1e-9)
              and math.isclose(x[0], x[2], rel_tol=0.15)),
        Claim("s63-decoding-overhead-7pct", "§6.3",
              "experiments assume a constant 7 % decoding overhead "
              "(overhead / symbols for 100 blocks)", "0.07 / 107",
              _fixed(lambda: (
                  DEFAULT_DECODING_OVERHEAD,
                  CodeParameters(num_blocks=100, block_size=10).recovery_target,
              )),
              lambda x: x == (0.07, 107)),
        Claim("s63-recode-degree-limit", "§6.3",
              "recoding degrees are limited to 50 (default / distribution max)",
              "50",
              _fixed(lambda: (
                  DEFAULT_MAX_RECODE_DEGREE,
                  Recoder.over_ids(range(100_000), random.Random(0)).max_degree,
              )),
              lambda x: x == (50, 50)),
        Claim("s63-file-geometry", "§6.3",
              "a 32 MB file is 23,968 blocks of 1400 bytes", "23968",
              _fixed(lambda: math.ceil(32 * 1024 * 1024 / 1400)),
              lambda x: x == 23_968),
    ]


def _figure1_rows() -> List[Claim]:
    def reports(m: Measurements) -> Tuple[Any, Any]:
        return m["fig1"]["collab"], m["fig1"]["tree"]

    def leaf_gain(m: Measurements) -> int:
        collab, tree = reports(m)
        return max(
            collab.completion_ticks[leaf] - tree.completion_ticks[leaf]
            for leaf in ("C", "D", "E")
        )

    return [
        Claim("fig1-both-complete", "Fig. 1",
              "the multicast tree (1a) and the collaborative overlay (1c) both "
              "deliver every node", "complete",
              _once(lambda m: tuple(r.all_complete for r in reports(m))),
              lambda x: all(x)),
        Claim("fig1-collaboration-faster", "Fig. 1",
              "perpendicular transfers finish sooner (ticks: 1c / 1a)", "1c < 1a",
              _once(lambda m: tuple(r.ticks for r in reports(m))),
              lambda x: x[0] < x[1]),
        Claim("fig1-leaves-gain", "Fig. 1",
              "leaves C, D and E each finish earlier in 1c (smallest gain, ticks)",
              "C, D, E gain", _once(leaf_gain), lambda x: x < 0),
    ]


def _figures5to8() -> List[Claim]:
    compact, stretched = "compact", "stretched"

    def top_extreme(points, strategy, pick):
        names = sorted({p.strategy for p in points})
        others = [_series(points, compact, name)[-1] for name in names]
        return _series(points, compact, strategy)[-1], pick(others)

    rows = [
        Claim("fig5-recode-bf-beats-random", "Fig. 5",
              "compact: Recode/BF costs less than Random at every correlation "
              "(largest Recode/BF - Random)", "Recode/BF below Random",
              _seeded("fig5", lambda pts: _worst_gap(
                  _series(pts, compact, "Recode/BF"), _series(pts, compact, "Random"))),
              lambda x: x < 0),
        Claim("fig5-random-degrades", "Fig. 5",
              "compact: Random's overhead grows with correlation (last / first)",
              "grows",
              _seeded("fig5", lambda pts: (
                  _series(pts, compact, "Random")[-1], _series(pts, compact, "Random")[0])),
              lambda x: x[0] > x[1]),
        Claim("fig5-random-worst-at-top", "Fig. 5",
              "compact: Random is the worst strategy at the highest correlation "
              "(Random / worst)", "worst",
              _seeded("fig5", lambda pts: top_extreme(pts, "Random", max)),
              lambda x: x[0] >= x[1]),
        Claim("fig5-recode-bf-best-at-top", "Fig. 5",
              "compact: Recode/BF is the best strategy at the highest correlation "
              "(Recode/BF / best)", "best",
              _seeded("fig5", lambda pts: top_extreme(pts, "Recode/BF", min)),
              lambda x: x[0] <= x[1]),
        Claim("fig5-stretched-helps-random", "Fig. 5",
              "Random is much better stretched than compact (stretched / compact, "
              "correlation 0)", "better",
              _seeded("fig5", lambda pts: (
                  _series(pts, stretched, "Random")[0], _series(pts, compact, "Random")[0])),
              lambda x: x[0] < x[1]),
    ]
    for strategy in ("Recode", "Recode/MW"):
        rows.append(Claim(
            f"fig5-stretched-{strategy.lower().replace('/', '-')}-worse", "Fig. 5",
            f"stretched: oblivious {strategy} is worse than Random "
            f"({strategy} / Random, correlation 0)", "recodes too wide a domain",
            _seeded("fig5", lambda pts, s=strategy: (
                _series(pts, stretched, s)[0], _series(pts, stretched, "Random")[0])),
            lambda x: x[0] > x[1],
        ))

    def bf_speedups(pts):
        values = _finite([p.value for p in pts if p.strategy in ("Random/BF", "Recode/BF")])
        return min(values, default=math.nan), max(values, default=math.nan)

    rows += [
        Claim("fig6-bf-speedups-bounded", "Fig. 6",
              "Random/BF and Recode/BF speedups lie in [0.9, 2.1] (min / max)",
              "near 2x",
              _seeded("fig6", bf_speedups), lambda x: 0.9 <= x[0] and x[1] <= 2.1),
        Claim("fig6-speedups-bounded", "Fig. 6",
              "no speedup exceeds the two-sender ideal (largest, <= 2.1)", "<= 2",
              _seeded("fig6", lambda pts: _max_finite(_all_values(pts))),
              lambda x: x <= 2.1),
    ]
    for scenario in (compact, stretched):
        def mean_of(pts, strategy, sc=scenario):
            return _mean(_series(pts, sc, strategy))

        rows += [
            Claim(f"fig6-{scenario}-random-bf-vs-recode", "Fig. 6",
                  f"{scenario}: Random/BF speeds up at least as much as oblivious "
                  "Recode, within 0.05 (mean Random/BF / Recode)", "BF helps",
                  _seeded("fig6", lambda pts, f=mean_of: (
                      f(pts, "Random/BF"), f(pts, "Recode"))),
                  lambda x: x[0] >= x[1] - 0.05),
            Claim(f"fig6-{scenario}-recode-bf-beats-recode", "Fig. 6",
                  f"{scenario}: Recode/BF beats oblivious Recode "
                  "(mean Recode/BF / Recode)", "BF helps",
                  _seeded("fig6", lambda pts, f=mean_of: (
                      f(pts, "Recode/BF"), f(pts, "Recode"))),
                  lambda x: x[0] > x[1]),
            Claim(f"fig6-{scenario}-recode-bf-beats-recode-mw", "Fig. 6",
                  f"{scenario}: Recode/BF beats Recode/MW (mean Recode/BF / Recode/MW)",
                  "BF helps",
                  _seeded("fig6", lambda pts, f=mean_of: (
                      f(pts, "Recode/BF"), f(pts, "Recode/MW"))),
                  lambda x: x[0] > x[1]),
            Claim(f"fig6-{scenario}-random-performs-well", "Fig. 6",
                  f"{scenario}: plain Random speeds up by > 1.3 (mean)",
                  "performs well",
                  _seeded("fig6", lambda pts, f=mean_of: f(pts, "Random")),
                  lambda x: x > 1.3),
        ]

    def compact_mean(pts, strategy):
        return _mean(_series(pts, compact, strategy))

    rows += [
        Claim("fig7-recode-bf-beats-one-full-sender", "Fig. 7",
              "two partial Recode/BF senders beat one full sender (best rate)",
              "> 1",
              _seeded("fig7", lambda pts: _max_finite(
                  [p.value for p in pts if p.strategy == "Recode/BF"])),
              lambda x: x > 1.0),
        Claim("fig7-compact-recode-bf-beats-random", "Fig. 7",
              "compact: informed recoding beats random selection "
              "(mean Recode/BF / Random)", "informed best",
              _seeded("fig7", lambda pts: (
                  compact_mean(pts, "Recode/BF"), compact_mean(pts, "Random"))),
              lambda x: x[0] > x[1]),
        Claim("fig7-compact-random-decays", "Fig. 7",
              "compact: Random's rate decays with correlation (last / first)",
              "decays",
              _seeded("fig7", lambda pts: (
                  _series(pts, compact, "Random")[-1], _series(pts, compact, "Random")[0])),
              lambda x: x[0] <= x[1]),
        Claim("fig7-rates-bounded", "Fig. 7",
              "no rate exceeds two full senders (largest, <= 2.2)", "<= 2",
              _seeded("fig7", lambda pts: _max_finite(_all_values(pts))),
              lambda x: x <= 2.2),
        Claim("fig8-compact-flows-additive", "Fig. 8",
              "compact: four partial Recode/BF flows are additive (mean rate > 1.5)",
              "additive",
              _seeded("fig8", lambda pts: compact_mean(pts, "Recode/BF")),
              lambda x: x > 1.5),
        Claim("fig8-compact-recode-bf-beats-random", "Fig. 8",
              "compact: informed recoding beats random selection "
              "(mean Recode/BF / Random)", "informed best",
              _seeded("fig8", lambda pts: (
                  compact_mean(pts, "Recode/BF"), compact_mean(pts, "Random"))),
              lambda x: x[0] > x[1]),
        Claim("fig8-rates-bounded", "Fig. 8",
              "no rate exceeds four full senders (largest, <= 4.3)", "<= 4",
              _seeded("fig8", lambda pts: _max_finite(_all_values(pts))),
              lambda x: x <= 4.3),
    ]
    return rows


#: The table, in the paper's order.
CLAIMS: Tuple[Claim, ...] = tuple(
    _section4()
    + _section52()
    + _section5()
    + _figure4()
    + _section54()
    + _section6()
    + _figure1_rows()
    + _figures5to8()
)


def evaluate(scale: str = "default", workers: int = 1) -> List[Verdict]:
    """Measure and judge every row of :data:`CLAIMS` at ``scale``.

    ``workers`` fans the Figure 5-8 campaigns out over processes; it
    changes no number.  A row's ``seconds`` include the shared runs it
    was the first to read.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    measurements = Measurements(dict(SCALES[scale], workers=workers))
    verdicts = []
    for claim in CLAIMS:
        start = time.perf_counter()
        observed = claim.measure(measurements)
        held = sum(1 for sample in observed.samples if claim.expect(sample))
        verdicts.append(Verdict(
            claim, observed.ours, held, len(observed.samples),
            time.perf_counter() - start,
        ))
    return verdicts
