"""Differential pin: every informed rewiring decision, hashed.

``UtilityRewiring`` ranks candidates by usefulness floats that tie
often (coarse cards, cloned sets, empty peers), so *which* peer a fill
or a swap names depends on the exact floats and on the order ties keep.
The digests below were recorded at the commit before the estimate
kernel moved onto the card (``SummaryScheme.usefulness`` per pair, no
batching) and must survive any change to how the estimates are
computed — with numpy and with it patched away.
"""

import hashlib
import json
import random

import pytest

import repro.hashing.batch as batch
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    SummaryScheme,
    UtilityRewiring,
    default_scheme,
)

SEEDS = range(24)
NODES = 40
CANDIDATES = 12

SCHEMES = {
    "minwise16": lambda: SummaryScheme("minwise", {"entries": 16}),
    "default": default_scheme,
    "modk": lambda: SummaryScheme("modk", {"modulus": 4}),
}

#: sha256 over the JSON list of (receiver, drops, adds) id triples of
#: all seeds, and how many of those decisions were swaps / fills.
PINNED = {
    ("minwise16", 0.0): (
        "6fdb3f78e08bc21ef0dd5dfa0ea15d132041ce34d320d469b0fb5fa3bded5920",
        379,
        1229,
    ),
    ("minwise16", 0.1): (
        "86f5d8d7c27cf91d6f81862f366ec017baee8209111e5b6bb8a43b95532f988e",
        321,
        1229,
    ),
    ("default", 0.0): (
        "7ffb1cd154f74472077d78a233d90b14f5e4d14e406a77682883a50c914eec4c",
        428,
        1229,
    ),
    ("default", 0.1): (
        "7524648f16a25bfcfc2cc2e2262c0c53f0ac489f7b36ef68dc76ce581f6d471f",
        326,
        1229,
    ),
    ("modk", 0.0): (
        "c7f17ba49f7b048f24232738e31464111884630346063273361c5710b38ca57c",
        271,
        1229,
    ),
    ("modk", 0.1): (
        "142c59bf5562039cfb41fec972e002e0969c9ae80a789aedf189fd64a927573f",
        259,
        1229,
    ),
}


def _swarm(rng):
    """~40 nodes whose sets overlap and tie: a small id pool, a few ids
    beyond 2**32, clones of earlier sets, empty peers and two sources."""
    pool = range(48)
    far = [(1 << 32) + 7 * k for k in range(12)]
    nodes = [
        OverlayNode(f"src{i}", target=200, is_source=True) for i in range(2)
    ]
    id_sets = []
    for i in range(NODES - 2):
        if i % 9 == 0:
            ids = []
        elif id_sets and rng.random() < 0.25:
            ids = list(rng.choice(id_sets))
        else:
            ids = rng.sample(pool, rng.randint(1, 24)) + rng.sample(
                far, rng.randint(0, 4)
            )
        id_sets.append(ids)
        nodes.append(
            OverlayNode(
                f"p{i}",
                target=200,
                initial_ids=ids,
                max_connections=rng.randint(1, 4),
            )
        )
    return nodes, list(pool) + far


def _decisions(scheme_name, hysteresis):
    triples = []
    for seed in SEEDS:
        rng = random.Random(seed)
        nodes, id_pool = _swarm(rng)
        policy = UtilityRewiring(SCHEMES[scheme_name](), hysteresis=hysteresis)
        # Round two follows adds, so its cards arrive through absorb.
        for round_ in range(2):
            for receiver in nodes:
                if receiver.is_source:
                    continue
                if round_:
                    for symbol_id in rng.sample(id_pool, rng.randint(0, 3)):
                        receiver.working_set.add(symbol_id)
                others = [n for n in nodes if n is not receiver]
                current = rng.sample(
                    others, rng.randint(0, receiver.max_connections)
                )
                candidates = rng.sample(nodes, CANDIDATES)
                drops, adds = policy.rewire(receiver, current, candidates)
                triples.append(
                    [
                        receiver.node_id,
                        [d.node_id for d in drops],
                        [a.node_id for a in adds],
                    ]
                )
    digest = hashlib.sha256(json.dumps(triples).encode()).hexdigest()
    swaps = sum(1 for _r, drops, _a in triples if drops)
    fills = sum(1 for _r, drops, adds in triples if adds and not drops)
    return digest, swaps, fills


@pytest.mark.parametrize("numpy_available", [True, False])
@pytest.mark.parametrize("scheme_name,hysteresis", sorted(PINNED))
def test_decisions_match_the_per_pair_parent(
    scheme_name, hysteresis, numpy_available, monkeypatch
):
    if not numpy_available:
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    elif batch._numpy() is None:
        pytest.skip("numpy is not installed")
    assert _decisions(scheme_name, hysteresis) == PINNED[(scheme_name, hysteresis)]
