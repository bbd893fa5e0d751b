"""Tests for the end-to-end prototype protocol."""

import random
import struct

import pytest

from repro.coding import Packet, xor_payloads
from repro.delivery import make_strategy
from repro.protocol import CodeParameters, DataMessage, ProtocolPeer, TransferSession
from repro.protocol.session import HELLO_HEADER_BYTES
from repro.reconcile import CALLING_CARD, DEFAULT_POLICY


def make_params(num_blocks=200, block_size=64, seed=7):
    return CodeParameters(num_blocks=num_blocks, block_size=block_size, stream_seed=seed)


def make_content(params, seed=1):
    rng = random.Random(seed)
    return bytes(
        rng.randrange(256) for _ in range(params.num_blocks * params.block_size)
    )


class TestCodeParameters:
    def test_recovery_target_includes_overhead(self):
        p = make_params(1000)
        assert p.recovery_target == 1070  # ceil(1000 * 1.07)

    def test_encoders_share_structure(self):
        p = make_params()
        content = make_content(p)
        full = p.encoder_for(content)
        structure = p.structure_encoder()
        for i in range(50):
            assert full.neighbours(i) == structure.neighbours(i)


class TestMessages:
    def test_hello_is_about_1kb(self):
        p = make_params()
        peer = ProtocolPeer("x", p, initial_symbols=p.encoder_for(make_content(p)).symbols(range(10)))
        card = CALLING_CARD.summary_of(peer.working_set)
        # Size header + the card's own set-size header + 128 minima
        # ≈ the paper's 1KB packet.
        assert HELLO_HEADER_BYTES + card.wire_bytes() == 8 + 4 + 8 * 128

    def test_data_message_roundtrip_encoded(self):
        msg = DataMessage(symbol_id=42, constituent_ids=frozenset(), payload=b"abc")
        parsed = DataMessage.unpack_encoded(msg.pack())
        assert parsed == msg

    def test_data_message_roundtrip_recoded(self):
        msg = DataMessage(
            symbol_id=None, constituent_ids=frozenset([3, 9, 27]), payload=b"xyz"
        )
        parsed = DataMessage.unpack_recoded(msg.pack())
        assert parsed == msg

    def test_recoded_header_cost_grows_with_degree(self):
        small = DataMessage(None, frozenset([1, 2]), b"p")
        big = DataMessage(None, frozenset(range(10)), b"p")
        assert big.wire_bytes() > small.wire_bytes()

    def test_a_source_handshake_charges_two_hellos_and_a_request(self):
        p = make_params()
        content = make_content(p)
        enc = p.encoder_for(content)
        src = ProtocolPeer("s", p, content=content)
        rcv = ProtocolPeer("r", p, initial_symbols=enc.symbols(range(10)))
        session = TransferSession(src, rcv, rng=random.Random(0))
        assert session.handshake()
        # Two 1KB hellos (header + card) and the 4-byte request.
        assert session.stats.control_bytes == 2 * (8 + 4 + 8 * 128) + 4


class TestDataMessageRefusals:
    """Everything malformed is a ``ValueError`` — the packet's own check —
    never a ``struct.error``, an ``assert`` or silent acceptance."""

    @pytest.mark.parametrize(
        "symbol_id, constituent_ids",
        [(5, frozenset([1, 2])), (None, frozenset())],
        ids=["both", "neither"],
    )
    def test_neither_encoded_nor_recoded_is_refused(self, symbol_id, constituent_ids):
        with pytest.raises(ValueError):
            DataMessage(symbol_id, constituent_ids, b"abcd")

    @pytest.mark.parametrize("cut", range(8))
    def test_truncated_encoded_blob(self, cut):
        blob = DataMessage.encoded(42, b"abcd").pack()
        with pytest.raises(ValueError, match="truncated"):
            DataMessage.unpack_encoded(blob[:cut])

    @pytest.mark.parametrize("cut", [0, 1, 2, 9, 17])
    def test_truncated_recoded_blob(self, cut):
        blob = DataMessage.recoded([3, 9], b"abcd").pack()
        assert len(blob) == 2 + 16 + 4
        with pytest.raises(ValueError, match="truncated"):
            DataMessage.unpack_recoded(blob[:cut])

    def test_recoded_blob_announcing_zero_ids(self):
        with pytest.raises(ValueError):
            DataMessage.unpack_recoded(struct.pack("<H", 0) + b"abcd")

    def test_recoded_blob_listing_an_id_twice(self):
        # {7, 7} must not collapse to the degree-1 blend {7}, whose
        # payload would then be "recovered" as symbol 7's bytes.
        with pytest.raises(ValueError, match="twice"):
            DataMessage.unpack_recoded(struct.pack("<HQQ", 2, 7, 7) + b"abcd")

    @pytest.mark.parametrize(
        "packet", [DataMessage.encoded(42), DataMessage.recoded([3, 9])],
        ids=["encoded", "recoded"],
    )
    def test_packing_a_payload_free_packet_names_the_payload(self, packet):
        with pytest.raises(ValueError, match="payload"):
            packet.pack()

    def test_wire_format_is_pinned(self):
        assert DataMessage.encoded(42, b"ab").pack() == struct.pack("<Q", 42) + b"ab"
        assert DataMessage.recoded([9, 3], b"ab").pack() == (
            struct.pack("<HQQ", 2, 3, 9) + b"ab"
        )


class TestPeer:
    def test_source_requires_matching_content(self):
        p = make_params(num_blocks=200)
        with pytest.raises(ValueError):
            ProtocolPeer("s", p, content=b"x" * 64)  # wrong block count

    def test_correlation_estimate_tracks_truth(self):
        p = make_params(400, 16)
        content = make_content(p)
        enc = p.encoder_for(content)
        a = ProtocolPeer("a", p, initial_symbols=enc.symbols(range(0, 300)))
        b = ProtocolPeer("b", p, initial_symbols=enc.symbols(range(150, 450)))
        session = TransferSession(b, a, rng=random.Random(0))
        assert session.handshake()
        est = session.stats.estimated_correlation
        assert abs(est - 0.5) < 0.15  # 150 of B's 300 are shared

    def test_fresh_data_from_partial_rejected(self):
        p = make_params()
        peer = ProtocolPeer("x", p)
        with pytest.raises(RuntimeError):
            peer.fresh_data()

    def test_recode_with_nothing_rejected(self):
        p = make_params()
        session = TransferSession(
            ProtocolPeer("x", p), ProtocolPeer("y", p), rng=random.Random(0)
        )
        assert session.handshake()
        with pytest.raises(ValueError, match="empty working set"):
            session.send_one()

    def test_a_blend_carries_the_xor_and_a_blend_of_one_goes_encoded(self):
        p = make_params(num_blocks=8, block_size=4)
        enc = p.encoder_for(make_content(p))
        peer = ProtocolPeer("x", p, initial_symbols=enc.symbols(range(5)))
        block = {i: enc.symbol(i).payload for i in range(5)}
        assert peer.data_for(Packet.recoded([3])) == DataMessage.encoded(3, block[3])
        assert peer.data_for(Packet.recoded([1, 3, 4])) == DataMessage.recoded(
            [1, 3, 4], xor_payloads([block[1], block[3], block[4]])
        )

    def test_payload_free_constituents_are_refused(self):
        p = make_params(num_blocks=8, block_size=4)
        structure = p.structure_encoder().symbols(range(5))
        peer = ProtocolPeer("x", p, initial_symbols=structure)
        with pytest.raises(RuntimeError, match="payload-free"):
            peer.data_for(Packet.recoded([1, 2]))

    @pytest.mark.parametrize(
        "packet",
        [DataMessage.encoded(3, b"ab"), DataMessage.recoded([3, 4], b"ab"),
         DataMessage.encoded(3, b"abcdef"), DataMessage.encoded(3)],
        ids=["plain-short", "recoded-short", "plain-long", "no-payload"],
    )
    def test_payload_of_the_wrong_length_is_refused_at_the_boundary(self, packet):
        peer = ProtocolPeer("x", make_params(num_blocks=8, block_size=4))
        with pytest.raises(ValueError, match="4 bytes"):
            peer.receive_data(packet)
        assert len(peer.working_set) == 0 and not peer.symbols

    def test_payload_of_the_agreed_length_is_stored(self):
        peer = ProtocolPeer("x", make_params(num_blocks=8, block_size=4))
        assert peer.receive_data(DataMessage.encoded(3, b"abcd")) == [3]
        assert peer.receive_data(DataMessage.recoded([3, 4], b"\x00" * 4)) == [4]
        assert peer.symbols[4].payload == b"abcd"


class TestSession:
    def test_full_to_empty_decodes_and_verifies(self, drive):
        p = make_params(300, 32)
        content = make_content(p, seed=2)
        src = ProtocolPeer("s", p, content=content)
        rcv = ProtocolPeer("r", p)
        stats = drive(TransferSession(src, rcv, rng=random.Random(3)))
        assert stats.completed
        assert rcv.decoded_content(len(content)) == content

    def test_control_overhead_tiny_at_paper_packet_size(self, drive):
        # With the paper's 1400-byte payloads, the handshake's "handful
        # of packet payloads" is a sub-percent fraction of the transfer.
        p = CodeParameters(num_blocks=100, block_size=1400, stream_seed=11)
        content = make_content(p, seed=6)
        src = ProtocolPeer("s", p, content=content)
        rcv = ProtocolPeer("r", p)
        stats = drive(TransferSession(src, rcv, rng=random.Random(3)))
        assert stats.completed
        assert stats.control_fraction < 0.02

    def test_partial_peers_with_overlap(self, drive):
        p = make_params(300, 32)
        content = make_content(p, seed=3)
        enc = p.encoder_for(content)
        a = ProtocolPeer("a", p, initial_symbols=enc.symbols(range(0, 220)))
        b = ProtocolPeer("b", p, initial_symbols=enc.symbols(range(120, 400)))
        sess = TransferSession(b, a, rng=random.Random(6))
        stats = drive(sess, max_packets=3000)
        assert stats.used_summary  # correlation high enough to ship a BF
        assert stats.completed
        assert a.decoded_content(len(content)) == content

    def test_identical_peers_rejected_at_handshake(self, drive):
        p = make_params(200, 16)
        content = make_content(p, seed=4)
        enc = p.encoder_for(content)
        syms = enc.symbols(range(100))
        a = ProtocolPeer("a", p, initial_symbols=syms)
        b = ProtocolPeer("b", p, initial_symbols=list(syms))
        stats = drive(TransferSession(b, a, rng=random.Random(9)))
        assert stats.rejected
        assert stats.data_packets == 0  # admission control saved the wire

    def test_mismatched_params_rejected(self):
        p1, p2 = make_params(200), make_params(201)
        a = ProtocolPeer("a", p1)
        b = ProtocolPeer("b", p2)
        with pytest.raises(ValueError):
            TransferSession(a, b, rng=random.Random(0))

    def test_source_not_a_valid_receiver_but_sender_ok(self, drive):
        # Receiving into a source makes no sense in our model; the
        # session API still allows it (it just completes immediately
        # once the source's decoder is complete) — exercise the path of
        # the source as *sender* which is the supported direction.
        p = make_params(150, 16)
        content = make_content(p, seed=5)
        src = ProtocolPeer("s", p, content=content)
        rcv = ProtocolPeer("r", p)
        stats = drive(TransferSession(src, rcv, rng=random.Random(12)))
        assert stats.completed

    def test_an_empty_useful_domain_sends_nothing(self, drive):
        # The receiver's Bloom filter holds every sender id, two of them
        # as false positives the receiver lacks: the strategy falls back
        # to blending the whole set, and none of those blends may reach
        # the wire.
        p = make_params(1000, 8)
        enc = p.encoder_for(make_content(p))
        rcv = ProtocolPeer("r", p, initial_symbols=enc.symbols(range(400)))
        assert not rcv.has_decoded
        bloom = DEFAULT_POLICY.summary_of(rcv.working_set)
        hidden = [i for i in range(400, 3000) if not bloom.missing_from([i])][:2]
        ids = list(range(18)) + hidden
        snd = ProtocolPeer("s", p, initial_symbols=enc.symbols(ids))
        session = TransferSession(snd, rcv, rng=random.Random(3))
        stats = drive(session)
        assert stats.used_summary
        assert stats.data_packets == 0
        assert not session.stream_step()

    def test_an_uninformed_sender_that_grew_blends_the_new_ids(self):
        p = make_params(200, 8)
        enc = p.encoder_for(make_content(p))
        snd = ProtocolPeer("s", p, initial_symbols=enc.symbols(range(40)))
        rcv = ProtocolPeer("r", p, initial_symbols=enc.symbols(range(300, 340)))
        session = TransferSession(snd, rcv, rng=random.Random(4))
        assert session.handshake() and not session.stats.used_summary
        for _ in range(5):
            session.send_one()
        for i in range(40, 60):
            snd.receive_data(DataMessage.encoded(i, enc.symbol(i).payload))
        # The rebuilt Recode strategy draws nothing: it sends what a
        # fresh make_strategy on the same stream position sends.
        stream = random.Random()
        stream.setstate(session.rng.getstate())
        fresh = make_strategy("Recode", snd.working_set, rcv.working_set, stream)
        sent = [session.send_one() for _ in range(40)]
        blends = [m.constituent_ids or {m.symbol_id} for m in sent]
        assert blends == [fresh.next_packet().constituent_ids for _ in range(40)]
        assert any(i >= 40 for ids in blends for i in ids)
