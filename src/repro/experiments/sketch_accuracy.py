"""Section 4 reproduction: sketch accuracy within a 1KB calling card.

The paper claims a single 1KB packet (128 x 64-bit minima, or ~128
sampled keys) gives "sufficiently accurate estimates" of working-set
similarity.  This runner measures RMSE of the three estimators against
ground truth across resemblance levels.
"""

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.api.spec import Bound, check_value
from repro.delivery.working_set import DEFAULT_KEY_UNIVERSE, WorkingSet
from repro.hashing.permutations import PermutationFamily
from repro.reconcile import build_summary
from repro.seeding import randbelow, sample
from repro.sketches import MinwiseSketch, containment_from_resemblance


@dataclass
class SketchAccuracy:
    """RMSE of containment estimates for one sketch technique."""

    technique: str
    packet_bytes: int
    rmse: float
    bias: float
    samples: int


def _make_pair(set_size: int, containment: float, rng: random.Random):
    """(A, B) with |A ∩ B| / |B| ≈ containment, |A| = |B| = set_size."""
    overlap = int(round(containment * set_size))
    pool = sample(rng, range(DEFAULT_KEY_UNIVERSE), 2 * set_size - overlap)
    b = pool[:set_size]
    a = pool[set_size - overlap :]
    return WorkingSet(a), WorkingSet(b)


def run_sketch_accuracy(
    set_size: int = 5_000,
    containments: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    sketch_entries: int = 128,
    trials: int = 5,
    seed: int = 21,
) -> List[SketchAccuracy]:
    """Measure estimate error for minwise / random-sample / mod-k sketches.

    All techniques are granted the same ~1KB budget: 128 minima, 128
    sampled keys, or an expected-128-element mod-k sample.
    """
    check_value("run_sketch_accuracy.trials", trials, int, Bound(ge=1))
    rng = random.Random(seed)
    family = PermutationFamily(sketch_entries, DEFAULT_KEY_UNIVERSE, seed=seed)
    errors: Dict[str, List[float]] = {"minwise": [], "random-sample": [], "mod-k": []}
    for containment in containments:
        for _ in range(trials):
            a, b = _make_pair(set_size, containment, rng)
            truth = len(a.ids & b.ids) / len(b)

            sk_a = MinwiseSketch.build(a.ids, family)
            sk_b = MinwiseSketch.build(b.ids, family)
            r = sk_a.estimate_resemblance(sk_b)
            est = containment_from_resemblance(r, len(a), len(b))
            errors["minwise"].append(est - truth)

            # Random sample: B samples, A reports the hit fraction
            # |B_k ∩ A| / k — an unbiased estimate of |A ∩ B| / |B|.
            sample_b = build_summary(
                "random_sample", b.ids, k=sketch_entries,
                seed=randbelow(rng, 1 << 32),
            ).sample
            hits = sum(1 for key in sample_b if key in a)
            errors["random-sample"].append(hits / len(sample_b) - truth)

            # Mod-k: both samples keep the same keys, so |A_k ∩ B_k| /
            # |B_k| estimates the same containment.
            modulus = max(1, set_size // sketch_entries)
            mk_a = build_summary("modk", a.ids, modulus=modulus, seed=seed).sample
            mk_b = build_summary("modk", b.ids, modulus=modulus, seed=seed).sample
            if mk_b:
                errors["mod-k"].append(len(mk_a & mk_b) / len(mk_b) - truth)
    out = []
    for name, errs in errors.items():
        rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
        bias = sum(errs) / len(errs)
        out.append(
            SketchAccuracy(
                technique=name,
                packet_bytes=8 * sketch_entries,
                rmse=rmse,
                bias=bias,
                samples=len(errs),
            )
        )
    return out
