"""Property-based tests for the prototype protocol."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import CodeParameters, DataMessage, ProtocolPeer, TransferSession


class TestMessageRoundTrip:
    @given(
        symbol_id=st.integers(min_value=0, max_value=2**63),
        payload=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_encoded_pack_unpack(self, symbol_id, payload):
        msg = DataMessage(symbol_id, frozenset(), payload)
        assert DataMessage.unpack_encoded(msg.pack()) == msg

    @given(
        ids=st.sets(st.integers(min_value=0, max_value=2**63),
                    min_size=1, max_size=30),
        payload=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_recoded_pack_unpack(self, ids, payload):
        msg = DataMessage(None, frozenset(ids), payload)
        assert DataMessage.unpack_recoded(msg.pack()) == msg

    @given(
        ids=st.sets(st.integers(min_value=0, max_value=2**40),
                    min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_wire_bytes_match_packed_length(self, ids):
        msg = DataMessage(None, frozenset(ids), b"x" * 10)
        assert msg.wire_bytes() == len(msg.pack())

    @given(blob=st.binary(max_size=64), recoded=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_blob_parses_to_a_valid_packet_or_is_a_value_error(
        self, blob, recoded
    ):
        unpack = DataMessage.unpack_recoded if recoded else DataMessage.unpack_encoded
        try:
            msg = unpack(blob)
        except ValueError:
            return
        assert msg.is_recoded == recoded
        assert msg.wire_bytes() == len(blob)
        assert unpack(msg.pack()) == msg

    @given(
        ids=st.sets(st.integers(min_value=0, max_value=2**63),
                    min_size=1, max_size=8),
        payload=st.binary(max_size=16),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_mutated_headers_are_value_errors(self, ids, payload, data):
        recoded = DataMessage.recoded(ids, payload).pack()
        header = 2 + 8 * len(ids)
        cut = data.draw(st.integers(min_value=0, max_value=header - 1))
        with pytest.raises(ValueError):
            DataMessage.unpack_recoded(recoded[:cut])
        with pytest.raises(ValueError):
            DataMessage.unpack_encoded(recoded[: min(cut, 7)])
        twice = sorted(ids) + [data.draw(st.sampled_from(sorted(ids)))]
        with pytest.raises(ValueError):
            DataMessage.unpack_recoded(
                struct.pack(f"<H{len(twice)}Q", len(twice), *twice) + payload
            )


class TestSessionProperties:
    @given(
        holder_a=st.integers(min_value=0, max_value=120),
        overlap=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=15, deadline=None)
    def test_partial_session_never_regresses(self, holder_a, overlap, seed):
        """A session can only grow the receiver's working set, and only
        with symbols derivable from the sender's holdings."""
        params = CodeParameters(num_blocks=120, block_size=8, stream_seed=3)
        rng = random.Random(seed)
        content = bytes(rng.randrange(256) for _ in range(120 * 8))
        enc = params.encoder_for(content)
        a_ids = list(range(holder_a))
        b_start = max(0, holder_a - overlap)
        b_ids = list(range(b_start, b_start + 130))
        receiver = ProtocolPeer("a", params, initial_symbols=enc.symbols(a_ids),
                                rng=random.Random(seed + 1))
        sender = ProtocolPeer("b", params, initial_symbols=enc.symbols(b_ids),
                              rng=random.Random(seed + 2))
        before = set(receiver.working_set.ids)
        session = TransferSession(sender, receiver, rng=random.Random(seed + 3))
        session.run(until_decoded=False, max_packets=600)
        after = set(receiver.working_set.ids)
        assert before <= after
        assert after <= before | set(b_ids)
        # Any payload the receiver now holds is byte-correct.
        for sid in after - before:
            payload = receiver.symbols[sid].payload
            if payload is not None:
                assert payload == enc.symbol(sid).payload
