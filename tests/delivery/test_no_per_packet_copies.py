"""No transfer path copies the known set — or the packet — once per packet.

``RecodedPeeler.known_ids`` and ``WorkingSet.ids`` are defensive
copies, O(n).  The loops that ask "complete yet?" per packet, or "what
is novel?" per flow window, read ``known_count`` / the set relations
instead.  These tests replace the two accessors with counting spies
and pin the call counts — deterministic counts, no wall-clock.

A transmission is likewise one object from composer to peeler: the
:class:`~repro.coding.Packet` a strategy (or a source) composes is the
very object ``RecodedPeeler.receive`` ingests, with nothing re-wrapped
in between.
"""

import random

import pytest

from repro.api import run, specs
from repro.api.registry import small_spec
from repro.coding import EncodedSymbol, Packet, RecodedPeeler
from repro.delivery import (
    STRATEGY_NAMES,
    SimReceiver,
    WorkingSet,
    make_multi_sender_scenario,
    make_pair_scenario,
    make_strategy,
    simulate_multi_sender_transfer,
    simulate_p2p_transfer,
)
from repro.flow.engine import FlowSimulator


def _spy_on(monkeypatch, cls, name):
    """Swap property ``cls.name`` for one that counts its reads."""
    original = cls.__dict__[name]
    assert isinstance(original, property)
    calls = [0]

    def counted(self):
        calls[0] += 1
        return original.fget(self)

    monkeypatch.setattr(cls, name, property(counted))
    return calls


@pytest.fixture
def known_ids_reads(monkeypatch):
    return _spy_on(monkeypatch, RecodedPeeler, "known_ids")


class TestAccessorContract:
    def test_known_ids_is_still_a_property_returning_a_fresh_set(self):
        assert isinstance(RecodedPeeler.__dict__["known_ids"], property)
        assert isinstance(SimReceiver.__dict__["known_ids"], property)
        peeler = RecodedPeeler(known_ids=[1, 2, 3])
        first, second = peeler.known_ids, peeler.known_ids
        assert type(first) is set and first == {1, 2, 3}
        assert first is not second

    def test_spy_sees_an_explicit_read(self, known_ids_reads):
        receiver = SimReceiver([1, 2, 3], target=5)
        assert receiver.known_ids == {1, 2, 3}
        assert known_ids_reads[0] == 1
        assert receiver.known_count == 3 and not receiver.is_complete
        assert known_ids_reads[0] == 1


@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestTransferLoopsNeverCopyTheKnownSet:
    def test_p2p_transfer(self, name, known_ids_reads):
        rng = random.Random(21)
        layout = make_pair_scenario(200, 1.1, 0.3, rng)
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        strategy = make_strategy(
            name, layout.sender, layout.receiver, rng,
            symbols_desired=layout.target - len(layout.receiver),
        )
        result = simulate_p2p_transfer(receiver, strategy)
        assert result.packets_sent > 0
        assert result.receiver_final_count == receiver.known_count
        assert known_ids_reads[0] == 0

    def test_multi_sender_transfer(self, name, known_ids_reads):
        rng = random.Random(22)
        layout = make_multi_sender_scenario(200, 1.2, 0.2, 3, rng)
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        strategies = [
            make_strategy(name, sender, layout.receiver, rng, symbols_desired=40)
            for sender in layout.senders
        ]
        result = simulate_multi_sender_transfer(
            receiver, strategies, full_senders=1
        )
        assert result.completed and result.packets_sent > 0
        assert known_ids_reads[0] == 0

    def test_pair_transfer_spec(self, name, known_ids_reads):
        result = run(
            specs.pair_transfer(
                target=150, correlation=0.2, strategy_name=name, seed=5
            )
        )
        assert result.metrics["packets_sent"] > 0
        assert known_ids_reads[0] == 0


def test_summary_tradeoff_never_copies_the_known_set(known_ids_reads):
    result = run(small_spec("summary_tradeoff"))
    assert any(cell["ran"] for cell in result.extras["cells"].values())
    assert known_ids_reads[0] == 0


def test_flow_advance_never_copies_a_working_set(monkeypatch):
    """``_advance`` (and the ``_apply_rep_update`` calls it makes) read
    each rep's cached id-space bitmap, never ``ids``."""
    ids_reads = _spy_on(monkeypatch, WorkingSet, "ids")
    inside = {"advance": 0, "peer_updates": 0, "ids_reads": 0}

    advance = FlowSimulator._advance
    apply_update = FlowSimulator._apply_rep_update

    def counted_advance(self, t0, t1):
        before = ids_reads[0]
        advance(self, t0, t1)
        inside["advance"] += 1
        inside["ids_reads"] += ids_reads[0] - before

    def counted_update(self, receiver, sender, k):
        if not sender.is_source:
            inside["peer_updates"] += 1
        apply_update(self, receiver, sender, k)

    monkeypatch.setattr(FlowSimulator, "_advance", counted_advance)
    monkeypatch.setattr(FlowSimulator, "_apply_rep_update", counted_update)

    spec = small_spec("population_flash_crowd")
    assert spec.measurement.fidelity == "flow"
    run(spec)
    # The spec exercises both halves: windows advanced, and peer (not
    # source) senders mirrored into receivers' sampled-id sets.
    assert inside["advance"] > 0 and inside["peer_updates"] > 0
    assert inside["ids_reads"] == 0


@pytest.fixture
def packet_census(monkeypatch):
    """Every ``Packet`` (and ``EncodedSymbol``) constructed, and every
    object the one ingest is handed, in order."""
    built, symbols, ingested = [], [], []

    def counting(cls, log):
        post_init = cls.__post_init__

        def counted(self):
            post_init(self)
            log.append(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    counting(Packet, built)
    counting(EncodedSymbol, symbols)
    receive = RecodedPeeler.receive

    def counted_receive(self, packet):
        ingested.append(packet)
        return receive(self, packet)

    monkeypatch.setattr(RecodedPeeler, "receive", counted_receive)
    return built, symbols, ingested


class TestOnePacketObjectFromComposerToPeeler:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_pair_transfer(self, name, packet_census):
        built, symbols, ingested = packet_census
        result = run(
            specs.pair_transfer(
                target=150, correlation=0.2, strategy_name=name, seed=5
            )
        )
        assert len(built) == result.metrics["packets_sent"] > 0
        assert len(ingested) == len(built)
        assert all(got is sent for got, sent in zip(ingested, built))
        assert all(type(p) is Packet for p in built) and not symbols

    def test_overlay_run(self, packet_census):
        built, symbols, ingested = packet_census
        result = run(small_spec("congested_swarm"))
        sent, lost = result.metrics["packets_sent"], result.metrics["packets_lost"]
        assert len(built) == sent > 0 and lost > 0
        # Lost packets, and arrivals at a complete or departed receiver,
        # are never ingested; everything ingested is a composed object.
        assert 0 < len(ingested) <= sent - lost
        composed = {id(p) for p in built}
        assert all(id(p) in composed for p in ingested)
        assert all(type(p) is Packet for p in built) and not symbols
