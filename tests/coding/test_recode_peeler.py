"""Tests for recoding and the recoded-symbol peeler."""

import random

import pytest

from repro.coding import (
    LTEncoder,
    Recoder,
    Packet,
    RecodedPeeler,
)
from repro.coding.recode import (
    immediate_usefulness_probability,
    optimal_recode_degree,
)
from repro.coding.symbol import xor_payloads


class TestOptimalDegree:
    def test_zero_correlation_degree_one(self):
        # Nothing shared: plain symbols are best.
        assert optimal_recode_degree(1000, 0.0) == 1

    def test_degree_grows_with_correlation(self):
        degrees = [optimal_recode_degree(1000, c) for c in (0.0, 0.5, 0.8, 0.9)]
        assert degrees == sorted(degrees)
        assert degrees[-1] >= 8

    def test_full_correlation_maximal(self):
        assert optimal_recode_degree(100, 1.0) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_recode_degree(0, 0.5)
        with pytest.raises(ValueError):
            optimal_recode_degree(10, 1.5)

    def test_optimal_degree_maximises_probability(self):
        # d* should (locally) beat d*-1 and d*+1 on the exact formula.
        n, c = 200, 0.7
        d_star = optimal_recode_degree(n, c)
        p_star = immediate_usefulness_probability(n, c, d_star)
        assert p_star >= immediate_usefulness_probability(n, c, max(1, d_star - 1)) - 1e-12
        assert p_star >= immediate_usefulness_probability(n, c, d_star + 1) - 1e-12

    def test_probability_formula_degree_one(self):
        # Degree 1: P = (1-c) exactly.
        assert immediate_usefulness_probability(100, 0.3, 1) == pytest.approx(0.7)


class TestRecoder:
    def _symbols(self, n=100, seed=1):
        return LTEncoder(500, stream_seed=seed).symbols(range(n))

    def test_recoded_symbol_from_held_ids(self):
        syms = self._symbols()
        held = {s.symbol_id for s in syms}
        r = Recoder(syms, rng=random.Random(2))
        z = r.next_symbol()
        assert z.constituent_ids <= held
        assert 1 <= z.degree <= 50

    def test_empty_working_set_rejected(self):
        with pytest.raises(ValueError):
            Recoder([])

    def test_degree_cap(self):
        syms = self._symbols(200)
        r = Recoder(syms, max_degree=5, rng=random.Random(3))
        assert all(r.next_symbol().degree <= 5 for _ in range(50))

    def test_payload_is_xor_of_constituents(self):
        enc = LTEncoder.from_content(bytes(range(256)) * 20, 64, stream_seed=4)
        syms = enc.symbols(range(40))
        by_id = {s.symbol_id: s for s in syms}
        r = Recoder(syms, rng=random.Random(5))
        z = r.next_symbol()
        expected = xor_payloads([by_id[i].payload for i in sorted(z.constituent_ids)])
        assert z.payload == expected

    def test_correlation_raises_minimum_degree(self):
        syms = self._symbols(200)
        d_star = optimal_recode_degree(200, 0.9)
        high_c = Recoder(syms, min_degree=d_star, rng=random.Random(6))
        degrees = [high_c.next_symbol().degree for _ in range(100)]
        assert min(degrees) >= d_star


class TestRecodedPeeler:
    def test_paper_example(self):
        # Section 5.4.2: z1 = y13, z2 = y5^y8, z3 = y5^y13 recovers all.
        p = RecodedPeeler()
        assert p.add_recoded(Packet.recoded(frozenset([13]))) == [13]
        assert p.add_recoded(Packet.recoded(frozenset([5, 8]))) == []
        recovered = p.add_recoded(Packet.recoded(frozenset([5, 13])))
        assert set(recovered) == {5, 8}
        assert p.known_ids == {5, 8, 13}

    def test_redundant_recoded_counted(self):
        p = RecodedPeeler(known_ids=[1, 2, 3])
        assert p.add_recoded(Packet.recoded(frozenset([1, 2]))) == []
        assert p.recoded_useless == 1

    def test_payload_recovery(self):
        enc = LTEncoder.from_content(b"payload-test" * 100, 50, stream_seed=7)
        syms = enc.symbols(range(10))
        by_id = {s.symbol_id: s for s in syms}
        p = RecodedPeeler(
            known_ids=[0, 1], payloads={0: by_id[0].payload, 1: by_id[1].payload}
        )
        blend = Packet.recoded(
            frozenset([0, 1, 5]),
            xor_payloads([by_id[0].payload, by_id[1].payload, by_id[5].payload]),
        )
        assert p.add_recoded(blend) == [5]
        assert p.payload_of(5) == by_id[5].payload

    def test_add_encoded_cascades_pending(self):
        p = RecodedPeeler()
        p.add_recoded(Packet.recoded(frozenset([10, 20])))
        p.add_recoded(Packet.recoded(frozenset([20, 30])))
        recovered = p.add_encoded(10)
        assert set(recovered) == {10, 20, 30}

    def test_duplicate_encoded_noop(self):
        p = RecodedPeeler(known_ids=[5])
        assert p.add_encoded(5) == []

    def test_pending_count(self):
        p = RecodedPeeler()
        p.add_recoded(Packet.recoded(frozenset([1, 2, 3])))
        assert p.pending_count == 1
        p.add_encoded(1)
        p.add_encoded(2)
        assert p.pending_count == 0  # resolved via cascade

    def test_deep_cascade(self):
        # Chain z_i = y_i ^ y_{i+1}; releasing y_0 unlocks everything.
        p = RecodedPeeler()
        for i in range(50):
            p.add_recoded(Packet.recoded(frozenset([i, i + 1])))
        recovered = p.add_encoded(0)
        assert set(recovered) == set(range(51))

    def test_full_transfer_via_recoding(self):
        # A partial sender can convey its whole working set by recoding.
        enc = LTEncoder(300, stream_seed=8)
        sender_syms = enc.symbols(range(120))
        r = Recoder(sender_syms, rng=random.Random(9))
        p = RecodedPeeler(known_ids=[s.symbol_id for s in sender_syms[:20]])
        for _ in range(4000):
            p.add_recoded(r.next_symbol())
            if len(p.known_ids) == 120:
                break
        assert len(p.known_ids) == 120


class TestUntrackedConstituent:
    """A blend reduced by a symbol whose bytes were never tracked has no
    known bytes: the id is recovered, its payload is unknown."""

    P1, P2, P3 = b"\x01" * 4, b"\x06" * 4, b"\x18" * 4

    def test_known_constituent_without_payload(self):
        p = RecodedPeeler(known_ids=[1])
        blend = Packet.recoded(frozenset([1, 2]), xor_payloads([self.P1, self.P2]))
        assert p.add_recoded(blend) == [2]
        assert p.payload_of(2) is None  # not the unreduced P1 ^ P2

    def test_pending_blend_reduced_by_a_payload_free_arrival(self):
        p = RecodedPeeler()
        blend = Packet.recoded(frozenset([1, 2]), xor_payloads([self.P1, self.P2]))
        assert p.add_recoded(blend) == []
        assert p.add_encoded(1) == [1, 2]
        assert p.payload_of(2) is None

    def test_unknown_bytes_propagate_through_a_cascade(self):
        p = RecodedPeeler(known_ids=[1])
        p.add_recoded(Packet.recoded(frozenset([2, 3]), xor_payloads([self.P2, self.P3])))
        p.add_recoded(Packet.recoded(frozenset([1, 2]), xor_payloads([self.P1, self.P2])))
        assert p.known_ids == {1, 2, 3}
        assert p.payload_of(2) is None and p.payload_of(3) is None

    def test_tracked_payloads_still_reduce(self):
        p = RecodedPeeler(known_ids=[1], payloads={1: self.P1})
        blend = Packet.recoded(frozenset([1, 2]), xor_payloads([self.P1, self.P2]))
        assert p.add_recoded(blend) == [2]
        assert p.payload_of(2) == self.P2


class TestPeelingInto:
    """``RecodedPeeler.into(s)`` adopts ``s``: nothing is copied."""

    def test_plain_set_is_adopted(self):
        held = {1}
        p = RecodedPeeler.into(held)
        assert p.known is held
        assert p.add_recoded(Packet.recoded(frozenset([1, 2]))) == [2]
        assert held == {1, 2}
        held.add(3)  # the owner's own adds are the peeler's knowledge too
        assert p.known_count == 3
        assert p.add_recoded(Packet.recoded(frozenset([3, 4]))) == [4]

    def test_known_ids_constructor_owns_a_copy(self):
        held = {1}
        p = RecodedPeeler(known_ids=held)
        p.add_encoded(2)
        assert held == {1} and p.known is not held

    def test_blend_pending_on_an_id_the_owner_added_itself(self):
        held = set()
        p = RecodedPeeler.into(held)
        assert p.add_recoded(Packet.recoded(frozenset([1, 2]))) == []
        held.add(1)
        assert p.add_encoded(2) == [2]  # 1 is not "recovered" a second time
        assert p.pending_count == 0


class TestReceive:
    def test_dispatches_on_the_packet_kind(self):
        p = RecodedPeeler(known_ids=[1])
        assert p.receive(Packet.encoded(1)) == []
        assert p.receive(Packet.recoded([1, 2])) == [2]
        assert p.receive(Packet.encoded(3)) == [3]
        assert p.recoded_received == 1  # plain symbols are not blends

    def test_goes_through_the_named_entry_points(self, monkeypatch):
        # bench/probes.py times add_recoded / add_encoded by patching
        # them on the class; the one ingest must resolve them by name.
        calls = []
        for name in ("add_recoded", "add_encoded"):
            original = getattr(RecodedPeeler, name)
            monkeypatch.setattr(
                RecodedPeeler, name,
                lambda self, *a, _n=name, _f=original: calls.append(_n) or _f(self, *a),
            )
        p = RecodedPeeler()
        p.receive(Packet.recoded([1, 2]))
        p.receive(Packet.encoded(1, None))
        assert calls == ["add_recoded", "add_encoded"]


class TestRecodedPacketValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Packet.recoded(frozenset())

    def test_header_cost_proportional_to_degree(self):
        z = Packet.recoded(frozenset([1, 2, 3, 4]))
        assert z.degree == 4
        assert z.wire_bytes() == 2 + 8 * 4
        assert Packet.recoded([1, 2], b"\x00" * 5).wire_bytes() == 2 + 8 * 2 + 5
        assert Packet.encoded(9, b"\x00" * 5).wire_bytes() == 8 + 5
