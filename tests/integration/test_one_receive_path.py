"""What a receiver holds is stored once, in its working set.

Overlay nodes and protocol peers peel arriving packets *into* the
:class:`WorkingSet` they already own (:meth:`RecodedPeeler.into`); no
layer keeps a second copy of the ids to hold equal by hand.  These
tests drive the public surfaces and check the consequences: the owner's
own adds are the peeler's knowledge, a replaced working set is the one
packets land in, and a peeler lives exactly as long as its node.
"""

import gc
import random
import weakref

from repro.api import run
from repro.api.registry import small_specs
from repro.coding import Packet, xor_payloads
from repro.delivery import SimReceiver, WorkingSet
from repro.overlay import OverlayNode, OverlaySimulator
from repro.protocol import CodeParameters, DataMessage, ProtocolPeer


def _pair(initial_b=range(5)):
    """``a`` (ids 0-4) sending Random packets to ``b``."""
    sim = OverlaySimulator(strategy_name="Random", rng=random.Random(3))
    a = OverlayNode("a", 50, initial_ids=range(5))
    b = OverlayNode("b", 50, initial_ids=initial_b)
    sim.add_node(a)
    sim.add_node(b)
    assert sim.connect("a", "b")
    return sim, a, b


class TestOverlayNodesPeelIntoTheirWorkingSet:
    def test_every_small_spec_swarm(self, monkeypatch):
        made = []
        init = OverlaySimulator.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(OverlaySimulator, "__init__", recording)
        swarms = 0
        for spec in small_specs().values():
            del made[:]
            run(spec)
            peelers = [
                (node, node.peeler)
                for sim in made
                for node in sim.nodes.values()
                if node.peeler is not None
            ]
            swarms += bool(made)
            assert bool(peelers) == bool(made), spec.scenario
            for node, peeler in peelers:
                assert not node.is_source
                assert peeler.known is node.working_set
                assert peeler.known_count == len(node.working_set)
        assert swarms >= 8

    def test_replaced_working_set_is_the_one_packets_land_in(self):
        sim, a, b = _pair()
        for _ in range(3):
            sim.tick()
        assert sim.packets_useful == 0  # b held everything a has
        b.working_set = replacement = WorkingSet(())
        for _ in range(10):
            sim.tick()
        assert sim.packets_useful == len(replacement) > 0
        assert b.working_set is replacement
        assert b.peeler.known is replacement
        assert set(replacement) <= set(range(5))

    def test_an_id_added_by_the_owner_is_known_to_the_peeler(self):
        sim, a, b = _pair(initial_b=())
        for symbol_id in range(5):
            b.receive_symbol(symbol_id)
        for _ in range(5):
            sim.tick()
        assert sim.packets_sent > 0 and sim.packets_useful == 0

    def test_a_removed_nodes_peeler_dies_with_it(self):
        sim, a, b = _pair(initial_b=())
        sim.tick()
        peeler = weakref.ref(b.peeler)
        held = weakref.ref(b.working_set)
        assert sim.remove_node("b") is b
        del b
        gc.collect()
        assert peeler() is None and held() is None


def test_a_payload_on_an_identity_level_packet_reaches_the_peeler():
    """Both id-level receivers hand the peeler the packet itself, so
    bytes set on it are peeled along with the ids (each used to forward
    the ids alone)."""
    one, two = b"\x0f" * 4, b"\xf0" * 4
    packets = [
        Packet.recoded([1, 2], xor_payloads([one, two])),
        Packet.encoded(1, one),
    ]
    receiver = SimReceiver((), target=2)
    node = OverlayNode("n", 2)
    sim = OverlaySimulator(rng=random.Random(0))
    for packet in packets:
        receiver.receive(packet)
        sim._deliver(node, packet)
    for peeler in (receiver._peeler, node.peeler):
        assert peeler.known_count == 2
        assert (peeler.payload_of(1), peeler.payload_of(2)) == (one, two)


def _content(params, seed=1):
    rng = random.Random(seed)
    return bytes(
        rng.randrange(256) for _ in range(params.num_blocks * params.block_size)
    )


class TestProtocolPeerPeelsIntoItsWorkingSet:
    PARAMS = CodeParameters(num_blocks=40, block_size=16, stream_seed=3)

    def test_an_id_added_by_the_owner_is_known_to_the_peeler(self):
        enc = self.PARAMS.encoder_for(_content(self.PARAMS))
        peer = ProtocolPeer("r", self.PARAMS)
        peer.working_set.add(7)
        seven = DataMessage(7, frozenset(), enc.symbol(7).payload)
        assert peer.receive_data(seven) == []
        version = peer.working_set.version
        eight = DataMessage(8, frozenset(), enc.symbol(8).payload)
        assert peer.receive_data(eight) == [8]
        # One add per recovered id: the peeler's, not a mirror's second.
        assert peer.working_set.version == version + 1
        assert peer.working_set.added_since(version) == [8]

    def test_recodes_over_payload_free_symbols_never_assemble_wrong_content(self):
        # The receiver knows ids 0-29 by structure only; a blend over
        # one of them cannot be reduced to the other constituent's
        # bytes, so that symbol is held without bytes rather than with
        # the unreduced XOR.
        content = _content(self.PARAMS)
        enc = self.PARAMS.encoder_for(content)
        receiver = ProtocolPeer(
            "r",
            self.PARAMS,
            initial_symbols=self.PARAMS.structure_encoder().symbols(range(30)),
        )
        sender = ProtocolPeer(
            "s", self.PARAMS, initial_symbols=enc.symbols(range(60)),
            rng=random.Random(5),
        )
        for _ in range(400):
            receiver.receive_data(sender.recoded_data())
        assert len(receiver.working_set) == len(receiver.symbols) > 30
        unknown_bytes = 0
        for symbol_id, symbol in receiver.symbols.items():
            if symbol.payload is None:
                unknown_bytes += symbol_id >= 30
            else:
                assert symbol.payload == enc.symbol(symbol_id).payload
        assert unknown_bytes  # the case arose
        source = ProtocolPeer("src", self.PARAMS, content=content)
        for _ in range(400):
            if receiver.try_finalize_decode():
                break
            receiver.receive_data(source.fresh_data())
        assert receiver.decoded_content(len(content)) == content
