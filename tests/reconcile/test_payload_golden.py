"""Wire payload golden for the summary kinds that hold their own state.

``to_payload()`` and ``wire_bytes()`` of each case below, over three
fixed id sets, hashed.  The digests were recorded before these kinds
were folded into single classes in ``repro.reconcile.adapters``; they
must stay byte-identical — a peer built from this code and a peer built
from the code before the fold exchange the same summaries.
"""

import hashlib
import json
import random

import pytest

from repro.reconcile import build_summary

#: Three fixed id sets: empty, a dense run, and 300 sparse ids, some of
#: them a source's fresh ids beyond 2**40.
_RNG = random.Random(32)
ID_SETS = {
    "empty": [],
    "dense": list(range(60)),
    "sparse": sorted(
        _RNG.sample(range(1 << 32), 250) + [(1 << 40) + i for i in range(50)]
    ),
}

#: (kind, build params) per case: each kind at its defaults and once
#: with every parameter it has moved off its default.
CASES = [
    ("modk", {}),
    ("modk", {"modulus": 3, "seed": 4, "max_elements": 9}),
    ("random_sample", {}),
    ("random_sample", {"k": 17, "seed": 5}),
    ("hashset", {}),
    ("hashset", {"hash_bits": 20, "seed": 6}),
    ("wholeset", {}),
    ("wholeset", {"key_bits": 12}),
    ("counting_bloom", {}),
    ("counting_bloom", {"buckets_per_element": 5, "k_hashes": 3, "seed": 7}),
    ("counting_bloom", {"m_buckets": 256, "k_hashes": 4}),
    ("partitioned_bloom", {}),
    ("partitioned_bloom",
     {"rho": 3, "beta": 2, "bits_per_element": 6, "k_hashes": 2, "seed": 8}),
    ("art", {}),
    ("art",
     {"bits_per_element": 6, "leaf_bits_per_element": 2.5, "seed": 9, "correction": 3}),
    ("cpi", {}),
    ("cpi", {"max_discrepancy": 5, "seed": 10}),
]

#: ``"<wire_bytes>:<sha256 of the sorted-key JSON payload, 16 hex>"`` for
#: the empty, dense and sparse sets, per case.
GOLDEN = {
    "modk":
        ["4:54ec493d94d6fb38", "28:128b64f987cf87ef", "124:5048c13999d0a31f"],
    "modk,max_elements=9,modulus=3,seed=4":
        ["4:cf4593a2eced691c", "76:411cbf12a135f2df", "76:0665b9ea38001b43"],
    "random_sample":
        ["4:c1afbf6c68559eb8", "1028:0bc249c5d62fe767", "1028:0a0c3bf53b9e764b"],
    "random_sample,k=17,seed=5":
        ["4:12a50725d1a460c2", "140:9e2d0fe12ba4f747", "140:2c2b8680524ee6e3"],
    "hashset":
        ["6:43edd9a8aabc61a5", "186:1344dbaddb1bfb89", "1206:b4ae39e6e70cdf6b"],
    "hashset,hash_bits=20,seed=6":
        ["6:bfb2e57f816772ee", "186:0c320b0d39e8e842", "906:764239879ba52b20"],
    "wholeset":
        ["4:aeb9fd15571ea182", "484:b06194b8c85413e1", "2404:15a74772da83d993"],
    "wholeset,key_bits=12":
        ["4:8183a5f137b6cf75", "94:d7328685a9db6aa5", "454:1b2ed024ae3965b8"],
    "counting_bloom":
        ["32:e5c8318c24809f50", "976:d4c64f692755a48a", "4816:7795f9079d815b50"],
    "counting_bloom,buckets_per_element=5,k_hashes=3,seed=7":
        ["32:85912547817f033e", "616:66b058e14c3ab65b", "3016:d4462d00e2beb3fc"],
    "counting_bloom,k_hashes=4,m_buckets=256":
        ["528:47a7dd16344baa2e", "528:58d9447eafab5c8e", "528:0d73c5e6a0861b29"],
    "partitioned_bloom":
        ["25:e8a98e629bb08309", "39:4dfd1d5f4b216db8", "89:4786c12ff9a3b3a8"],
    "partitioned_bloom,beta=2,bits_per_element=6,k_hashes=2,rho=3,seed=8":
        ["25:af722e7e641a0f0a", "39:795e08d442594aaa", "99:99a537da0d1e9954"],
    "art":
        ["30:c27e5728ddfc7927", "88:7383cbf6c6bd0f08", "328:39a1e62315939154"],
    "art,bits_per_element=6,correction=3,leaf_bits_per_element=2.5,seed=9":
        ["30:02c715f4fd374d27", "74:aaf3b5c1254d1eed", "254:577b9380a23c547a"],
    "cpi":
        ["560:ce789642e1b74aaf", "560:8b803fe5fee0b9a0", "560:f013ca59ed690255"],
    "cpi,max_discrepancy=5,seed=10":
        ["88:0bb882e27855f25d", "88:1ba6ae8b0c085ef4", "88:8bdc4872c1f8b71b"],
}


def _digest(kind, params, ids):
    summary = build_summary(kind, ids, **params)
    text = json.dumps(summary.to_payload(), sort_keys=True)
    return f"{summary.wire_bytes()}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def _case_id(kind, params):
    return kind + "".join(f",{k}={v}" for k, v in sorted(params.items()))


@pytest.mark.parametrize(
    "kind, params", CASES, ids=[_case_id(k, p) for k, p in CASES]
)
def test_payload_and_wire_size_are_unchanged(kind, params):
    got = [_digest(kind, params, ids) for ids in ID_SETS.values()]
    assert got == GOLDEN[_case_id(kind, params)]


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(_case_id(k, p) for k, p in CASES)
