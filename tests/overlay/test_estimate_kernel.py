"""The one estimate kernel: a min-wise card against many cards.

Kernel level: :func:`~repro.reconcile.adapters.resemblance_rows` over a
non-empty card's row and its family's rows (``MinwiseSummary.rows_of``)
must return the floats the per-pair :meth:`estimate_resemblance` loop
would — bit for bit, with numpy and without, since rewiring decisions
compare these values against each other and against a hysteresis
margin.  Reader
level: :meth:`SummaryScheme.usefulness_many` is the scalar
``usefulness`` list for every summary kind and through the catalog gate.
Table level: an epoch's :class:`EpochTable` rows give every receiver
the per-pair usefulness, hex for hex — sources, empty peers and empty
receivers included, against the cards themselves and against their
wire copies.
Cache level: a card's int64 row lives on the card and the card on its
node's working set, so both leave with their node — the simulator keeps
no per-node artefact map to evict.
"""

import gc
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.api import build, specs
from repro.overlay.catalog import CatalogNode, CatalogScheme, ObjectCatalog
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import EpochTable, SummaryScheme, default_scheme
from repro.reconcile import SummaryError, build_summary, summary_kinds
from repro.reconcile.adapters import resemblance_rows
from repro.reconcile.registry import summary_class, summary_from_payload

# A small pool (so cards overlap and tie), its twin beyond the 2**32 key
# universe (the fold) and the odd far id; empty sets give cards whose
# every minima position is empty.
_ids = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1 << 32, max_value=(1 << 32) + 40),
    st.integers(min_value=0, max_value=1 << 40),
)
_id_sets = st.lists(st.sets(_ids, max_size=30), min_size=2, max_size=6)

#: The default universe, and one whose minima would overflow an int64
#: row (the kernel must take the positional loop there).
FAMILIES = [{"entries": 16}, {"entries": 16, "universe": 1 << 63}]

#: Modest build parameters per kind; the CPI bound is small so that some
#: pairs reconcile exactly and the rest exceed it (usefulness 1.0).
KIND_PARAMS = {
    "minwise": {"entries": 16},
    "modk": {"modulus": 4},
    "random_sample": {"k": 64},
    "bloom": {"bits_per_element": 8},
    "cpi": {"max_discrepancy": 8},
    "hashset": {"hash_bits": 32},
}
ESTIMATING_KINDS = [
    k for k in sorted(summary_kinds()) if summary_class(k).supports_estimate
]


def _hexes(floats):
    return [f.hex() for f in floats]


def _kernel(ours, cards):
    return resemblance_rows(ours.row, ours.rows_of(cards))


def _assert_kernel_is_the_pair_loop(cards):
    # The kernel's contract: a non-empty card's row (an empty receiver
    # never reaches it; the epoch table answers it, see below).
    for ours in [c for c in cards if c.set_size]:
        pairs = _hexes(ours.estimate_resemblance(o) for o in cards)
        assert _hexes(_kernel(ours, cards)) == pairs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch, "_numpy", lambda: None)
            assert _hexes(_kernel(ours, cards)) == pairs


@settings(max_examples=60, deadline=None)
@given(initial=_id_sets, added=_id_sets, family=st.sampled_from(FAMILIES))
def test_many_is_exactly_the_per_pair_loop(initial, added, family):
    scheme = SummaryScheme("minwise", family)
    nodes = [
        OverlayNode(f"n{i}", target=1_000, initial_ids=ids)
        for i, ids in enumerate(initial)
    ]
    # Round 1 builds every card; round 2 follows incremental adds, so
    # its cards arrive through the absorb path.  Each round also compares
    # wire copies: cards rebuilt from their JSON payload.
    for extra in ([], added):
        for node, ids in zip(nodes, extra):
            for symbol_id in ids:
                node.working_set.add(symbol_id)
        cards = [scheme.card_of(n) for n in nodes]
        rebuilt = [
            summary_from_payload(json.loads(json.dumps(c.to_payload())))
            for c in cards
        ]
        _assert_kernel_is_the_pair_loop(cards + rebuilt)


@pytest.mark.parametrize("kind", ESTIMATING_KINDS)
@settings(max_examples=15, deadline=None)
@given(initial=_id_sets, added=_id_sets)
def test_usefulness_many_is_the_scalar_list(kind, initial, added):
    scheme = SummaryScheme(kind, KIND_PARAMS.get(kind, {}))
    nodes = [OverlayNode("src", target=1_000, is_source=True)] + [
        OverlayNode(f"n{i}", target=1_000, initial_ids=ids)
        for i, ids in enumerate(initial)
    ]
    for extra in ([], added):
        for node, ids in zip(nodes[1:], extra):
            for symbol_id in ids:
                node.working_set.add(symbol_id)
        for receiver in nodes[1:]:
            assert _hexes(scheme.usefulness_many(receiver, nodes)) == _hexes(
                scheme.usefulness(receiver, c) for c in nodes
            )
    assert scheme.usefulness_many(nodes[1], []) == []
    assert scheme.usefulness_many(nodes[1], nodes[:1]) == [1.0]


def _wire(card):
    return summary_from_payload(json.loads(json.dumps(card.to_payload())))


def _pair(scheme, receiver, candidate, card_of):
    """The one-pair usefulness, straight off two cards."""
    if candidate.is_source:
        return 1.0
    return 1.0 - scheme.resemblance(
        card_of(receiver), card_of(candidate), receiver.working_set
    )


@pytest.mark.parametrize("numpy_on", [True, False])
@settings(max_examples=40, deadline=None)
@given(initial=_id_sets, added=_id_sets, family=st.sampled_from(FAMILIES))
def test_the_epoch_table_is_the_per_pair_usefulness(numpy_on, initial, added, family):
    scheme = SummaryScheme("minwise", family)
    # A source and an empty peer: each a candidate (the empty one as a
    # current sender would be) and the empty one a receiver too.
    nodes = [
        OverlayNode("src", target=1_000, is_source=True),
        OverlayNode("empty", target=1_000),
    ] + [
        OverlayNode(f"n{i}", target=1_000, initial_ids=ids)
        for i, ids in enumerate(initial)
    ]
    with pytest.MonkeyPatch.context() as patch:
        if not numpy_on:
            patch.setattr(batch, "_numpy", lambda: None)
        for extra in ([], added):
            for node, ids in zip(nodes[2:], extra):
                for symbol_id in ids:
                    node.working_set.add(symbol_id)
            table = EpochTable(scheme, nodes)
            wire = {n: _wire(scheme.card_of(n)) for n in nodes}
            for receiver in nodes[1:]:
                got = _hexes(table.usefulness(receiver, nodes))
                assert got == _hexes(scheme.usefulness(receiver, c) for c in nodes)
                assert got == _hexes(
                    _pair(scheme, receiver, c, scheme.card_of) for c in nodes
                )
                assert got == _hexes(_pair(scheme, receiver, c, wire.get) for c in nodes)


_catalog_ids = st.sets(st.integers(min_value=0, max_value=23), max_size=24)


@pytest.mark.parametrize("numpy_on", [True, False])
@settings(max_examples=40, deadline=None)
@given(
    held=st.lists(_catalog_ids, min_size=2, max_size=6),
    demands=st.lists(st.sets(st.sampled_from([0, 1])), min_size=6, max_size=6),
)
def test_the_epoch_table_weighed_by_a_catalog_gate(numpy_on, held, demands):
    catalog = ObjectCatalog(
        targets=[10, 10],
        distinct=[12, 12],
        priorities=[1.0, 0.5],
        demand_shares=[0.6, 0.4],
    )
    scheme = CatalogScheme(catalog, "minwise", {"entries": 16})
    ids = list(catalog.symbol_ids(0)) + list(catalog.symbol_ids(1))
    nodes = [OverlayNode("src", target=10, is_source=True)] + [
        CatalogNode(f"c{i}", catalog, demand=demand, initial_ids=[ids[j] for j in got])
        for i, (got, demand) in enumerate(zip(held, demands))
    ]
    with pytest.MonkeyPatch.context() as patch:
        if not numpy_on:
            patch.setattr(batch, "_numpy", lambda: None)
        table = EpochTable(scheme, nodes)
        for receiver in nodes[1:]:
            got = _hexes(scheme.usefulness_many(receiver, nodes, table))
            assert got == _hexes(scheme.usefulness(receiver, c) for c in nodes)
            assert got == _hexes(
                scheme.object_weight(receiver, c)
                * _pair(scheme, receiver, c, scheme.card_of)
                for c in nodes
            )


@pytest.mark.parametrize("numpy_available", [True, False])
def test_catalog_gate_weighs_the_batch(numpy_available, monkeypatch):
    if not numpy_available:
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    catalog = ObjectCatalog(
        targets=[10, 10],
        distinct=[12, 12],
        priorities=[1.0, 0.5],
        demand_shares=[0.6, 0.4],
    )
    scheme = CatalogScheme(catalog, "minwise", {"entries": 16})
    wanted = list(catalog.symbol_ids(1))
    receiver = CatalogNode("r", catalog, demand=(1,), initial_ids=wanted[:3])
    candidates = [
        CatalogNode("none", catalog),
        CatalogNode("other", catalog, initial_ids=catalog.symbol_ids(0)),
        CatalogNode("full", catalog, initial_ids=wanted),
        CatalogNode("part", catalog, initial_ids=wanted[2:7]),
        CatalogNode("same", catalog, initial_ids=wanted[:3]),
        OverlayNode("src", target=10, is_source=True),
        OverlayNode("plain", target=10, initial_ids=wanted[1:5]),
    ]
    weights = [scheme.object_weight(receiver, c) for c in candidates]
    assert weights[:3] == [0.0, 0.0, 1.0] and 0.0 < weights[3] < 1.0
    assert _hexes(scheme.usefulness_many(receiver, candidates)) == _hexes(
        scheme.usefulness(receiver, c) for c in candidates
    )
    # A receiver that wants nothing more is ungated: the plain batch.
    done = CatalogNode("done", catalog, demand=(), initial_ids=wanted[:4])
    assert scheme.usefulness_many(done, candidates) == SummaryScheme(
        "minwise", {"entries": 16}
    ).usefulness_many(done, candidates)


@pytest.mark.parametrize("numpy_available", [True, False])
def test_mismatched_cards_are_refused_by_the_batch(numpy_available, monkeypatch):
    if not numpy_available:
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    ours = build_summary("minwise", range(20), entries=16)
    same = build_summary("minwise", range(10, 30), entries=16)
    for stranger in (
        build_summary("minwise", range(20), entries=32),
        build_summary("minwise", range(20), entries=16, seed=1),
        build_summary("minwise", range(20), entries=16, universe=1 << 40),
        build_summary("bloom", range(20)),
    ):
        with pytest.raises(SummaryError):
            ours.rows_of([same, stranger, same])


def _informed():
    spec = specs.random_overlay(
        num_peers=8, target=120, seed=17, strategy_name="Random/BF"
    ).with_override("reconfig.policy", "informed")
    return build(spec).scenario.simulator


def _run_one_epoch(sim):
    epochs = sim.reconfig_epochs
    while sim.reconfig_epochs == epochs:
        sim.tick()


def _derived_refs(working_set):
    """Weak references to a working set and everything cached on it."""
    return [weakref.ref(working_set)] + [
        weakref.ref(artefact) for _stamp, artefact in working_set._derived.values()
    ]


def test_cached_artefacts_leave_with_their_node():
    sim = _informed()
    # Peer-to-peer links normally form at epochs; wire a ring and dirty
    # every set so the refresh has receiver summaries to derive.
    peers = [n for n in sim.nodes.values() if not n.is_source]
    for sender, receiver in zip(peers, peers[1:] + peers[:1]):
        sim.connect(sender.node_id, receiver.node_id)
    for i, node in enumerate(peers):
        node.working_set.add(999_000_000 + i)
    sim._refresh_strategies()
    _run_one_epoch(sim)
    departing = next(n for n in peers if not n.is_complete).node_id
    cached = {key[0] for key in sim.nodes[departing].working_set._derived}
    # The card and the receiver summary: nothing else is kept per node.
    assert cached == {"minwise", "bloom"}
    refs = _derived_refs(sim.nodes[departing].working_set)
    if batch._numpy() is not None:
        # The epoch compared this card in a batch; its row is the card's.
        row = default_scheme().card_of(sim.nodes[departing])._row
        assert row is not None
        refs.append(weakref.ref(row))
        del row
    del peers, sender, receiver, node
    sim.remove_node(departing)  # the returned node is dropped here
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    _run_one_epoch(sim)
    assert departing not in sim.nodes
