"""Ablation: recoding degree policy (DESIGN.md design-choice bench).

Compares the paper's correlation-aware degree lower limit and minwise
degree shift against naive fixed-degree recoding at high correlation —
the regime Section 5.4.2's representative calculation addresses.
"""

import random

import pytest

from repro.coding import LTEncoder, Recoder, RecodedPeeler
from repro.coding.recode import optimal_recode_degree


def _run_policy(correlation, policy, budget=4_000, n_symbols=400, seed=1):
    """Useful fraction achieved by a recoding policy at a correlation."""
    rng = random.Random(seed)
    enc = LTEncoder(5_000, stream_seed=seed)
    sender_syms = enc.symbols(range(n_symbols))
    shared = int(correlation * n_symbols)
    receiver_known = [s.symbol_id for s in sender_syms[:shared]]
    if policy == "fixed-1":
        recoder = Recoder(sender_syms, max_degree=1, rng=rng)
    elif policy == "oblivious":
        recoder = Recoder(sender_syms, rng=rng)
    elif policy == "informed":
        recoder = Recoder(sender_syms, correlation=correlation, rng=rng)
    elif policy == "minwise-shift":
        recoder = Recoder(
            sender_syms, correlation=correlation, minwise_shift=True, rng=rng
        )
    else:  # pragma: no cover
        raise ValueError(policy)
    peeler = RecodedPeeler(known_ids=receiver_known)
    sent = 0
    start = peeler.known_count
    while sent < budget and peeler.known_count < n_symbols:
        peeler.add_recoded(recoder.next_symbol())
        sent += 1
    gained = peeler.known_count - start
    return gained / sent if sent else 0.0


@pytest.mark.parametrize("correlation", [0.5, 0.8])
def test_recode_degree_policy_ablation(benchmark, correlation):
    policies = ("fixed-1", "oblivious", "informed", "minwise-shift")

    def run_all():
        return {p: _run_policy(correlation, p) for p in policies}

    result = benchmark.pedantic(run_all, rounds=1, iterations=1)
    d_star = optimal_recode_degree(400, correlation)
    print(f"\n== Recode policy ablation at c={correlation} (d* = {d_star}) ==")
    for p, v in result.items():
        print(f"{p:14s} useful fraction {v:.3f}")
    # Correlation-aware policies beat naive degree-1 at high correlation:
    # a degree-1 recode is redundant with probability c.
    assert result["informed"] > result["fixed-1"]
    assert result["minwise-shift"] > result["fixed-1"]
