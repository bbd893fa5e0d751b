"""The epoch's one array kernel: the min-wise card matrix.

Kernel level: whatever :meth:`_MinwiseCardMatrix.prefill` writes into a
usefulness memo must be the float :meth:`SummaryScheme.usefulness` would
have computed — bit for bit, since rewiring decisions compare these
values against each other and against a hysteresis margin.  Cache level:
card rows (and the refresh's per-receiver summaries) live on the node's
working set, so they leave with their node — the simulator keeps no
per-node artefact map to evict.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.api import build, specs
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import SummaryScheme
from repro.overlay.simulator import _MinwiseCardMatrix

np = batch._numpy()
needs_numpy = pytest.mark.skipif(
    np is None, reason="the card matrix is the numpy epoch kernel"
)

# Ids beyond the 2**32 key universe exercise the fold; empty sets give
# cards whose every minima position is empty.
_id_sets = st.lists(
    st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=30),
    min_size=2,
    max_size=6,
)


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(initial=_id_sets, added=_id_sets, budgeted=st.booleans())
def test_prefill_writes_exactly_the_scalar_usefulness(initial, added, budgeted):
    params = {"entries": 16}
    cards = _MinwiseCardMatrix(SummaryScheme("minwise", params), np)
    scalar = SummaryScheme("minwise", params)  # never memoised
    nodes = [
        OverlayNode(f"n{i}", target=1_000, initial_ids=ids)
        for i, ids in enumerate(initial)
    ]
    by_id = {n.node_id: n for n in nodes}
    scanned = nodes[::2] if budgeted else None
    # Epoch 1 builds every row; epoch 2 follows incremental adds, so the
    # rows it re-derives come through the cards' absorb path.
    for extra in ([], added):
        for node, ids in zip(nodes, extra):
            node.working_set.update(ids)
        eligible = [n for n in nodes if len(n.working_set) > 0]
        cards.begin_epoch(eligible)
        for receiver in nodes:
            memo = {}
            cards.prefill(memo, receiver, scanned)
            assert set(memo) == {
                (receiver.node_id, c.node_id)
                for c in (nodes if scanned is None else scanned)
                if c in eligible and c is not receiver
            }
            for (_, cid), value in memo.items():
                expected = scalar.usefulness(receiver, by_id[cid])
                assert value.hex() == expected.hex()


def _informed(engine):
    spec = (
        specs.random_overlay(
            num_peers=8, target=120, seed=17, strategy_name="Random/BF"
        )
        .with_override("reconfig.policy", "informed")
        .with_override("measurement.engine", engine)
    )
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


@pytest.mark.parametrize(
    "engine", [pytest.param("columnar", marks=needs_numpy), "reference"]
)
def test_cached_artefacts_leave_with_their_node(engine):
    sim = _informed(engine)
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
    # The card, the receiver summary and (array kernel only) the row.
    assert {"minwise", "bloom"} <= cached
    assert ("minwise-row" in cached) == (engine == "columnar")
    refs = _derived_refs(sim.nodes[departing].working_set)
    del peers, sender, receiver, node
    sim.remove_node(departing)  # the returned node is dropped here
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    _run_one_epoch(sim)
    assert departing not in sim.nodes
