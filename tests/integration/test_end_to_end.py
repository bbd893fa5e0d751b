"""Integration tests crossing subsystem boundaries."""

import random

import pytest

from repro import quickstart_transfer
from repro.coding import LTEncoder, PeelingDecoder
from repro.delivery import (
    SimReceiver,
    WorkingSet,
    make_pair_scenario,
    make_strategy,
    simulate_p2p_transfer,
)
from repro.api import build, specs
from repro.protocol import CodeParameters, ProtocolPeer, TransferSession


class TestQuickstart:
    def test_quickstart_runs_and_reports(self):
        report = quickstart_transfer(target=300)
        assert "Recode/BF" in report
        assert "overhead" in report


class TestSketchToTransferPipeline:
    def test_sketch_estimate_drives_mw_strategy(self):
        """The full §4 -> §5.4 pipeline: estimate c, recode accordingly."""
        from repro.reconcile import containment_from_resemblance

        rng = random.Random(1)
        sc = make_pair_scenario(600, 1.1, 0.35, rng)
        sk_recv = sc.receiver.summary("minwise", entries=128, seed=44)
        sk_send = sc.sender.summary("minwise", entries=128, seed=44)
        r = sk_send.estimate_resemblance(sk_recv)
        # Correlation as the sender computes it: |A ∩ B| / |B| with B the
        # sender's set.
        est_c = containment_from_resemblance(r, len(sc.receiver), len(sc.sender))
        assert abs(est_c - sc.correlation) < 0.1

        recv = SimReceiver(sc.receiver.ids, sc.target)
        strat = make_strategy(
            "Recode/MW", sc.sender, sc.receiver, rng, correlation_estimate=est_c
        )
        res = simulate_p2p_transfer(recv, strat)
        assert res.completed

    def test_art_reconciliation_feeds_informed_transfer(self):
        """§5.3 ARTs used in place of Bloom filters for reconciled sends."""
        rng = random.Random(2)
        sc = make_pair_scenario(500, 1.1, 0.3, rng)
        art_recv = sc.receiver.summary(
            "art", bits_per_element=8, seed=9, correction=4
        )
        useful = set(art_recv.missing_from(sc.sender))
        assert useful
        assert useful <= sc.sender.ids - sc.receiver.ids
        # Send exactly the reconciled difference: every packet is useful.
        recv = SimReceiver(sc.receiver.ids, sc.target)
        new = 0
        for symbol_id in useful:
            from repro.delivery import Packet

            new += len(recv.receive(Packet.encoded(symbol_id)))
        assert new == len(useful)  # reconciled transfers never waste


class TestOverlayWithRealCoding:
    def test_overlay_completion_enables_decode(self):
        """Symbols collected through the overlay actually decode a file."""
        target = 150
        scenario = build(specs.figure1(target=target, seed=3)).scenario
        report = scenario.simulator.run(max_ticks=3000)
        assert report.all_complete
        # Reconstruct: node C's ids map to encoder symbols; with >= target
        # distinct symbols the file decodes (Gaussian fallback allowed).
        node_c = scenario.simulator.nodes["C"]
        enc = LTEncoder(120, stream_seed=5)
        dec = PeelingDecoder(120, track_payloads=False)
        usable = [i for i in node_c.working_set.ids]
        # Node ids beyond the scenario's synthetic space map via modulo to
        # a valid symbol universe for the decode check.
        dec.add_symbols(enc.symbols([i % (1 << 30) for i in usable]))
        dec.solve_remaining()
        assert dec.recovered_count == 120

    def test_adaptive_overlay_beats_static_eventually(self):
        adaptive = build(specs.random_overlay(num_peers=6, target=120, seed=11)).scenario
        rep = adaptive.simulator.run(max_ticks=2500)
        assert rep.all_complete


class TestProtocolScaledToPaperParameters:
    def test_paper_block_geometry_small_file(self):
        """The paper's 1400-byte blocks, scaled-down file, full pipeline."""
        block_size = 1400
        num_blocks = 64  # 89.6KB stand-in for the 32MB testbed file
        params = CodeParameters(
            num_blocks=num_blocks, block_size=block_size, stream_seed=99
        )
        rng = random.Random(12)
        content = bytes(rng.randrange(256) for _ in range(num_blocks * block_size))
        src = ProtocolPeer("src", params, content=content)
        mid = ProtocolPeer("mid", params)
        # Stage 1: source seeds a relay with ~60% of the file.
        s1 = TransferSession(src, mid, rng=random.Random(3))
        assert s1.handshake()
        for _ in range(int(0.6 * params.recovery_target)):
            s1.send_one()
        assert not mid.has_decoded
        # Stage 2: a second receiver downloads from source AND relay.
        rcv = ProtocolPeer("rcv", params)
        s2a = TransferSession(src, rcv, rng=random.Random(5))
        s2b = TransferSession(mid, rcv, rng=random.Random(6))
        assert s2a.handshake() and s2b.handshake()
        for _ in range(3 * params.recovery_target):
            if rcv.has_decoded:
                break
            s2a.send_one()
            if rcv.has_decoded:
                break
            s2b.send_one()
            if len(rcv.working_set) >= params.recovery_target:
                rcv.try_finalize_decode()
        assert rcv.has_decoded
        assert rcv.decoded_content(len(content)) == content
        # The relay contributed real useful packets (perpendicular value).
        assert s2b.stats.useful_packets > 0
