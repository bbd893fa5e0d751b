"""The one epoch loop: :func:`repro.overlay.reconfiguration.run_epoch`.

Both engines run it, and both must apply receiver *i*'s decision before
receiver *i+1* samples its candidates: applying draws from the same RNG
(a new connection builds a strategy), so deciding first and applying
afterwards would replay a different run — ``tests/sim/test_parity.py``
would notice only by its digest.  Pricing is one read per card per
epoch, when the epoch's table is filled, and a receiver pays only for
the cards it scanned.
"""

import random

import pytest

from repro.flow.engine import CohortDef, FlowSimulator
from repro.overlay import reconfiguration
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    EpochTable,
    SummaryScheme,
    UtilityRewiring,
    _usable_candidates,
    run_epoch,
)
from repro.overlay.simulator import OverlaySimulator


class CountingRandom(random.Random):
    """Counts the raw draws made outside the epoch's candidate scans;
    ``on_scan`` hears of each scan (see :func:`_hook_scans`)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0
        self.on_scan = lambda: None

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def _hook_scans(monkeypatch, rng):
    """Report each draw over overlay nodes by ``run_epoch``'s ``sample``
    (an epoch's candidate scan) to ``rng.on_scan``, uncounted."""
    draw = reconfiguration.sample

    def scan(r, population, k):
        if r is not rng or not isinstance(population[0], OverlayNode):
            return draw(r, population, k)
        rng.on_scan()
        draws = rng.draws
        try:
            return draw(r, population, k)
        finally:
            rng.draws = draws

    monkeypatch.setattr(reconfiguration, "sample", scan)


class SwapOldest:
    """Stub policy: drop the oldest sender for the first usable candidate,
    remembering every decision it returned."""

    def __init__(self):
        self.decisions = []

    def rewire(self, receiver, current_senders, candidates, table=None):
        serves = (table or EpochTable()).serves
        usable = _usable_candidates(receiver, current_senders, candidates, serves)
        drops, adds = (current_senders[:1], usable[:1]) if usable else ([], [])
        self.decisions.append(
            (receiver.node_id, [d.node_id for d in drops], [a.node_id for a in adds])
        )
        return drops, adds


def _packet_engine(rng, policy):
    sim = OverlaySimulator(rewiring=policy, reconfig_budget=4, rng=rng)
    sim.add_node(OverlayNode("src", 40, is_source=True))
    for i in range(8):
        # Small deficits against large disjoint senders: every new
        # connection truncates its recoding domain with an RNG draw.
        sim.add_node(
            OverlayNode(
                f"p{i}", 40, initial_ids=range(100 * i, 100 * i + 30),
                max_connections=2,
            )
        )
        sim.connect("src", f"p{i}")
    return sim._reconfigure, lambda: {
        nid: sim.senders_of(nid) for nid in sim.nodes if nid != "src"
    }


def _flow_engine(rng, policy):
    sim = FlowSimulator(
        [
            CohortDef(f"c{i}", object_id=0, members=10, initial_fraction=0.3,
                      slice_index=i % 2)
            for i in range(8)
        ],
        rate=1.0,
        rewiring=policy,
        scan_budget=4,
        max_connections=2,
        rng=rng,
    )
    for cohort in sim.cohorts:
        sim._arrive(cohort, 0.0)
    return lambda: sim._reconfigure(5.0), lambda: {
        c.cohort_id: [s.cohort_id for s in c.senders] for c in sim.cohorts
    }


@pytest.mark.parametrize("engine", [_packet_engine, _flow_engine])
def test_each_decision_is_applied_before_the_next_receiver_samples(
    engine, monkeypatch
):
    rng = CountingRandom(5)
    _hook_scans(monkeypatch, rng)
    policy = SwapOldest()
    reconfigure, topology = engine(rng, policy)
    # What each receiver's candidate scan finds: the topology, the
    # decisions made so far and the RNG's draw count.
    seen = []
    rng.on_scan = lambda: seen.append(
        (topology(), len(policy.decisions), rng.draws)
    )
    expected = topology()
    reconfigure()
    seen.append((topology(), len(policy.decisions), rng.draws))

    assert len(policy.decisions) == 8
    assert all(adds for _rid, _drops, adds in policy.decisions)
    assert [decided for _found, decided, _draws in seen] == list(range(9))
    assert seen[0][0] == expected
    for (rid, drops, adds), (found, _decided, _draws) in zip(
        policy.decisions, seen[1:]
    ):
        expected[rid] = [s for s in expected[rid] if s not in drops] + adds
        assert found == expected
    if engine is _packet_engine:
        # connect() drew while applying (each new strategy truncated its
        # recoding domain), and every scan but the first came after.
        draws = [d for _found, _decided, d in seen]
        assert all(a < b for a, b in zip(draws, draws[1:]))


@pytest.mark.parametrize("engine", [_packet_engine, _flow_engine])
def test_an_epoch_stores_nothing_on_the_scheme_or_the_policy(engine):
    scheme = SummaryScheme("minwise", {"entries": 16})
    policy = UtilityRewiring(scheme, hysteresis=0.0)
    reconfigure, topology = engine(random.Random(5), policy)
    before = topology(), dict(vars(scheme)), dict(vars(policy))
    reconfigure()
    assert topology() != before[0]  # the epoch rewired
    assert (dict(vars(scheme)), dict(vars(policy))) == before[1:]


class _PricedScheme(SummaryScheme):
    def __init__(self):
        super().__init__("minwise", {"entries": 16})
        self.priced = []

    def card_wire_bytes(self, card):
        self.priced.append(card)
        return 100


class _Idle:
    def __init__(self, scheme):
        self.scheme = scheme

    def rewire(self, receiver, current_senders, candidates, table=None):
        return [], []


def test_a_card_is_priced_once_per_epoch_and_paid_for_only_if_scanned():
    nodes = [OverlayNode("src", 10, is_source=True), OverlayNode("empty", 10)] + [
        OverlayNode(f"p{i}", 10, initial_ids=range(i, i + 3)) for i in range(6)
    ]
    scheme = _PricedScheme()

    def pool_of(receiver):
        # Everyone scans src, empty, itself and its two successors.
        i = nodes.index(receiver)
        return nodes[:2] + [receiver] + nodes[i + 1 : i + 3]

    bills = {
        receiver.node_id: control_bytes
        for receiver, control_bytes, _drops, _adds in run_epoch(
            _Idle(scheme), random.Random(0), 0, nodes[2:5], pool_of, lambda r: []
        )
    }
    # p0..p2 scanned p1..p4 between them: sources, empty peers and the
    # receiver's own card cost nothing.  The table priced every live
    # card it read once — the receivers' and their pools' — and p5,
    # in no pool, never.
    assert bills == {"p0": 200, "p1": 200, "p2": 200}
    owner = {id(scheme.card_of(n)): n.node_id for n in nodes[2:]}
    assert sorted(owner[id(card)] for card in scheme.priced) == [
        "p0", "p1", "p2", "p3", "p4"
    ]


def test_a_budget_samples_the_pool_and_a_schemeless_policy_pays_nothing():
    nodes = [OverlayNode(f"p{i}", 10, initial_ids=range(i, i + 3)) for i in range(6)]
    seen = []

    class Blind:
        def rewire(self, receiver, current_senders, candidates, table=None):
            seen.append([c.node_id for c in candidates])
            return [], []

    rng = random.Random(3)
    out = list(run_epoch(Blind(), rng, 2, nodes[:2], lambda r: nodes, lambda r: []))
    replay = random.Random(3)
    assert seen == [
        [c.node_id for c in replay.sample(nodes, 2)] for _ in range(2)
    ]
    assert [control_bytes for _r, control_bytes, _d, _a in out] == [0, 0]
