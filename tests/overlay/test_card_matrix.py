"""The epoch's one array kernel: the min-wise card matrix.

Kernel level: whatever :meth:`_MinwiseCardMatrix.prefill` writes into a
usefulness memo must be the float :meth:`SummaryScheme.usefulness` would
have computed — bit for bit, since rewiring decisions compare these
values against each other and against a hysteresis margin.  Cache level:
card rows (and the refresh's per-receiver artefacts) leave with their
node.
"""

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


@needs_numpy
def test_card_rows_leave_with_their_node():
    sim = _informed("columnar")
    _run_one_epoch(sim)
    rows = sim._cards.rows
    departing = [nid for nid in rows if not sim.nodes[nid].is_complete][:2]
    assert departing
    for nid in departing:
        sim.remove_node(nid)
    assert not set(departing) & set(rows)
    _run_one_epoch(sim)
    assert rows is sim._cards.rows
    assert rows and set(rows) <= set(sim.nodes)


def test_receiver_summaries_leave_with_their_node():
    sim = _informed("reference")
    # Peer-to-peer links normally form at epochs; wire a ring and dirty
    # every set so the refresh has summaries to build.
    peers = [n for n in sim.nodes.values() if not n.is_source]
    for sender, receiver in zip(peers, peers[1:] + peers[:1]):
        sim.connect(sender.node_id, receiver.node_id)
    for i, node in enumerate(peers):
        node.working_set.add(999_000_000 + i)
    sim._refresh_strategies()
    cached = list(sim._receiver_summaries)
    assert cached
    sim.remove_node(cached[0])
    assert cached[0] not in sim._receiver_summaries
    sim._refresh_strategies()
    assert set(sim._receiver_summaries) <= set(sim.nodes)
    assert sim._cards is None  # the scalar kernel never builds a matrix
