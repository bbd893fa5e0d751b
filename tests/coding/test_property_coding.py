"""Property-based tests for coding invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import LTEncoder, PeelingDecoder, RecodedPeeler, Packet
from repro.coding.symbol import xor_payloads


class TestRoundTripProperty:
    @given(
        num_blocks=st.integers(min_value=1, max_value=60),
        block_size=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_encode_decode_roundtrip(self, num_blocks, block_size, seed):
        rng = random.Random(seed)
        content = bytes(rng.randrange(256) for _ in range(num_blocks * block_size))
        enc = LTEncoder.from_content(content, block_size, stream_seed=seed)
        dec = PeelingDecoder(enc.num_blocks)
        for i, s in enumerate(enc.stream()):
            dec.add_symbol(s)
            if dec.is_complete:
                break
            if i > 20 * num_blocks + 50:
                dec.solve_remaining()
                break
        assert dec.is_complete
        assert dec.decoded_content() == content

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_gaussian_equals_peeling_result(self, seed):
        # Where peeling succeeds, Gaussian fallback must agree.
        enc = LTEncoder(80, stream_seed=seed)
        symbols = enc.symbols(range(120))
        peeled = PeelingDecoder(80, track_payloads=False)
        peeled.add_symbols(symbols)
        solved = PeelingDecoder(80, track_payloads=False)
        solved.add_symbols(symbols)
        solved.solve_remaining()
        # Gaussian can only add blocks, never lose them.
        assert set(peeled.recovered_blocks()) <= set(solved.recovered_blocks())


class TestXorProperties:
    payloads = st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=10)

    @given(ps=payloads)
    @settings(max_examples=100, deadline=None)
    def test_xor_is_associative_order_free(self, ps):
        shuffled = ps[:]
        random.Random(0).shuffle(shuffled)
        assert xor_payloads(ps) == xor_payloads(shuffled)

    @given(ps=payloads)
    @settings(max_examples=100, deadline=None)
    def test_xor_self_cancels(self, ps):
        doubled = ps + ps + [b"\x00" * 8]
        assert xor_payloads(doubled) == b"\x00" * 8


class TestPeelerProperties:
    @given(
        known=st.sets(st.integers(min_value=0, max_value=80), max_size=30),
        blends=st.lists(
            st.sets(st.integers(min_value=0, max_value=80), min_size=1, max_size=5),
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_peeler_matches_closure_semantics(self, known, blends):
        """The peeler recovers exactly the GF(2)-peeling closure."""
        p = RecodedPeeler(known_ids=known)
        for b in blends:
            p.add_recoded(Packet.recoded(frozenset(b)))
        # Reference: iterate to fixpoint over the same blends.
        reference = set(known)
        pending = [set(b) for b in blends]
        changed = True
        while changed:
            changed = False
            for b in pending:
                unknown = b - reference
                if len(unknown) == 1:
                    reference |= unknown
                    changed = True
        assert p.known_ids == reference
