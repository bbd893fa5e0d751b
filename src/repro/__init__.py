"""repro — Informed Content Delivery Across Adaptive Overlay Networks.

A full reproduction of Byers, Considine, Mitzenmacher & Rost (SIGCOMM
2002): digital-fountain content encoding, working-set sketches, Bloom
filter and approximate-reconciliation-tree summaries, recoded transfers,
the five delivery strategies of the evaluation, and an adaptive overlay
network substrate to run them on.

Quickstart::

    from repro import quickstart_transfer
    report = quickstart_transfer()
    print(report)

Subpackages:

* :mod:`repro.hashing` — hash families and min-wise permutations.
* :mod:`repro.sketches` — the stand-alone min-wise sketch and the
  resemblance / containment conversions (§4).
* :mod:`repro.filters` — the Bloom filter (§5.2).
* :mod:`repro.art` — the reconciliation trie and its difference search
  (§5.3).
* :mod:`repro.exact` — the characteristic-polynomial reconciler (§5.1).
* :mod:`repro.reconcile` — the one :class:`~repro.reconcile.Summary`
  interface and one class per summary kind — the calling cards (§4),
  Bloom filters and ARTs (§5.2–5.3), exact baselines (§5.1) — built by
  name (``build_summary("art", ids)``), round-tripped through wire
  payloads, and chosen by the :class:`~repro.reconcile.SummaryPolicy`
  the protocol and strategy layers consume.  An ART is
  ``build_summary("art", ids)``; the ART facade class that used to be
  exported here has left ``repro.__all__`` (README, "Layout").
* :mod:`repro.coding` — sparse parity-check codes and recoding (§5.4).
* :mod:`repro.delivery` — strategies and transfer simulation (§6).
* :mod:`repro.overlay` — adaptive overlay network substrate (§2).
* :mod:`repro.topology` — graph generators and the physical path model
  an overlay is mapped onto (§1–2).
* :mod:`repro.protocol` — end-to-end prototype with real payloads (§6).
* :mod:`repro.analysis` — closed-form helpers (coupon collector, Bloom
  FP, recode degree optimisation).
* :mod:`repro.experiments` — regenerators for every paper table/figure.
* :mod:`repro.api` — the declarative experiment pipeline: frozen
  :class:`~repro.api.ExperimentSpec` values, a string-keyed scenario
  registry, and one :func:`~repro.api.run` entry point returning a
  structured :class:`~repro.api.RunResult`.
* :mod:`repro.campaign` — the parallel sweep engine: a frozen
  :class:`~repro.campaign.CampaignSpec` grid over any experiment spec,
  fanned out across worker processes by
  :func:`~repro.campaign.run_campaign` with per-cell failure isolation
  and resumable output directories.
* :mod:`repro.seeding` — deterministic RNG derivation from a master
  seed (:func:`~repro.seeding.derive_rng`).

Declarative experiments::

    from repro import ExperimentSpec, run
    from repro.api import specs

    result = run(specs.flash_crowd(num_peers=48, seed=11))
    print(result.metrics)
"""

__version__ = "1.0.0"

from repro.coding import (
    DegreeDistribution,
    EncodedSymbol,
    LTEncoder,
    Packet,
    PeelingDecoder,
    Recoder,
    RecodedPeeler,
)
from repro.delivery import (
    STRATEGY_NAMES,
    SimReceiver,
    WorkingSet,
    make_pair_scenario,
    make_strategy,
    simulate_p2p_transfer,
)
from repro.filters import BloomFilter
from repro.hashing import PermutationFamily
from repro.seeding import derive_rng, derive_seed
from repro.sketches import MinwiseSketch


def __getattr__(name):
    # Lazy: the experiment pipeline pulls in the overlay/protocol/sim
    # stack, which `import repro` for a Bloom filter shouldn't pay for.
    if name in ("ExperimentSpec", "RunResult", "run"):
        from repro import api

        return getattr(api, name)
    if name in ("CampaignSpec", "CampaignResult", "run_campaign"):
        from repro import campaign

        return getattr(campaign, name)
    if name in ("Summary", "SummaryPolicy", "build_summary", "summary_kinds"):
        from repro import reconcile

        return getattr(reconcile, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "__version__",
    "ExperimentSpec",
    "RunResult",
    "run",
    "CampaignSpec",
    "CampaignResult",
    "run_campaign",
    "Summary",
    "SummaryPolicy",
    "build_summary",
    "summary_kinds",
    "derive_rng",
    "derive_seed",
    "BloomFilter",
    "DegreeDistribution",
    "EncodedSymbol",
    "LTEncoder",
    "MinwiseSketch",
    "Packet",
    "PeelingDecoder",
    "PermutationFamily",
    "Recoder",
    "RecodedPeeler",
    "STRATEGY_NAMES",
    "SimReceiver",
    "WorkingSet",
    "make_pair_scenario",
    "make_strategy",
    "simulate_p2p_transfer",
    "quickstart_transfer",
]


def quickstart_transfer(target: int = 500, seed: int = 1) -> str:
    """Run one informed peer-to-peer transfer and report the outcome.

    A tiny end-to-end tour: build a compact scenario, reconcile with a
    Bloom filter, transfer with Recode/BF, and compare against Random.
    """
    import random

    lines = ["Informed content delivery quickstart", "=" * 38]
    for name in ("Random", "Recode/BF"):
        rng = random.Random(seed)
        scenario = make_pair_scenario(target, 1.1, 0.3, rng)
        receiver = SimReceiver(scenario.receiver, scenario.target)
        strategy = make_strategy(
            name, scenario.sender, scenario.receiver, rng,
            symbols_desired=scenario.target - len(scenario.receiver),
        )
        result = simulate_p2p_transfer(receiver, strategy)
        lines.append(
            f"{name:10s} overhead={result.overhead:.2f} "
            f"packets={result.packets_sent} completed={result.completed}"
        )
    return "\n".join(lines)
