"""Informed content delivery: strategies, transfers, scenarios (§6).

This subpackage reproduces the paper's evaluation machinery:

* :mod:`repro.delivery.working_set` — a peer's symbol collection plus its
  sketch/summary "calling cards".
* :mod:`repro.delivery.strategies` — the five Section 6.2 sender
  strategies: Random, Random/BF, Recode, Recode/BF, Recode/MW.
* :mod:`repro.delivery.receiver` — receiver state: a recoded-symbol
  peeler (which holds the distinct symbols) plus packet accounting.
  Strategies compose and the receiver consumes the one transmission
  type, :class:`repro.coding.Packet` (re-exported here).
* :mod:`repro.delivery.transfer` — the round-robin transfer loop (one
  sender is its one-sender case) with the paper's
  overhead/speedup/relative-rate metrics.
* :mod:`repro.delivery.scenarios` — compact (1.1n) and stretched (1.5n)
  working-set layouts for Figures 5-8.
"""

from repro.delivery.working_set import WorkingSet
from repro.coding.symbol import Packet
from repro.delivery.strategies import (
    STRATEGY_NAMES,
    RandomStrategy,
    RandomSummaryStrategy,
    RecodeMWStrategy,
    RecodeStrategy,
    RecodeSummaryStrategy,
    SenderStrategy,
    make_strategy,
)
from repro.delivery.receiver import SimReceiver
from repro.delivery.transfer import (
    TransferResult,
    simulate_multi_sender_transfer,
    simulate_p2p_transfer,
)
from repro.delivery.scenarios import (
    PairScenario,
    MultiSenderScenario,
    make_pair_scenario,
    make_multi_sender_scenario,
)
from repro.delivery.orchestrator import (
    CandidateSender,
    SelectionResult,
    group_identical_senders,
    select_senders,
    split_demand,
)

__all__ = [
    "WorkingSet",
    "Packet",
    "SenderStrategy",
    "RandomStrategy",
    "RandomSummaryStrategy",
    "RecodeStrategy",
    "RecodeSummaryStrategy",
    "RecodeMWStrategy",
    "STRATEGY_NAMES",
    "make_strategy",
    "SimReceiver",
    "TransferResult",
    "simulate_p2p_transfer",
    "simulate_multi_sender_transfer",
    "PairScenario",
    "MultiSenderScenario",
    "make_pair_scenario",
    "make_multi_sender_scenario",
    "CandidateSender",
    "SelectionResult",
    "select_senders",
    "group_identical_senders",
    "split_demand",
]
