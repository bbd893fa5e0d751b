"""Tests for the pipelined (partitioned-summary) session mode (§5.2)."""

import random

import pytest

from repro.protocol import CodeParameters, ProtocolPeer, TransferSession


def build_pair(seed=1, num_blocks=240, overlap=120):
    params = CodeParameters(num_blocks=num_blocks, block_size=16, stream_seed=5)
    rng = random.Random(seed)
    content = bytes(rng.randrange(256) for _ in range(num_blocks * 16))
    enc = params.encoder_for(content)
    receiver = ProtocolPeer(
        "recv", params, initial_symbols=enc.symbols(range(0, 200)),
        rng=random.Random(seed + 1),
    )
    sender = ProtocolPeer(
        "send", params,
        initial_symbols=enc.symbols(range(200 - overlap, 460 - overlap)),
        rng=random.Random(seed + 2),
    )
    return params, content, sender, receiver


class TestPartitionedSession:
    def test_invalid_rho_rejected(self):
        _, _, sender, receiver = build_pair()
        with pytest.raises(ValueError):
            TransferSession(sender, receiver, partitioned_rho=-1)

    def test_pipelined_session_completes(self):
        _, content, sender, receiver = build_pair(seed=3)
        session = TransferSession(
            sender, receiver, partitioned_rho=4, rng=random.Random(9)
        )
        stats = session.run(until_decoded=True, max_packets=4_000)
        assert stats.used_summary
        assert stats.completed
        assert receiver.decoded_content(len(content)) == content

    def test_partitions_arrive_incrementally(self):
        _, _, sender, receiver = build_pair(seed=4)
        session = TransferSession(
            sender, receiver, partitioned_rho=4, rng=random.Random(10)
        )
        assert session.handshake()
        bytes_after_first = session.stats.control_bytes
        assert session._next_partition == 1  # only one partition so far
        assert session.request_next_partition()
        assert session.stats.control_bytes > bytes_after_first
        # Draining all partitions eventually returns False.
        while session.request_next_partition():
            pass
        assert session._next_partition == 4
        assert not session.request_next_partition()

    def test_each_partition_smaller_than_full_summary(self):
        _, _, sender, receiver = build_pair(seed=5)
        full = TransferSession(sender, receiver, rng=random.Random(11))
        assert full.handshake()
        piped = TransferSession(
            sender, receiver, partitioned_rho=4, rng=random.Random(12)
        )
        assert piped.handshake()
        # First-partition control cost is well below one full summary
        # (hello packets are identical in both, so compare totals).
        assert piped.stats.control_bytes < full.stats.control_bytes

    def test_pipelined_domain_only_useful_symbols(self):
        _, _, sender, receiver = build_pair(seed=6)
        session = TransferSession(
            sender, receiver, partitioned_rho=3, rng=random.Random(13)
        )
        assert session.handshake()
        while session.request_next_partition():
            pass
        held = set(receiver.working_set.ids)
        assert session._domain
        assert all(i not in held for i in session._domain)

    def test_session_bloom_policy_sizes_every_partition(self):
        """The stream has no budget of its own: a Bloom session policy
        (the default included) carries ``bits_per_element``."""
        from repro.reconcile import SummaryPolicy

        def control_bytes(policy):
            _, _, sender, receiver = build_pair(seed=7)
            session = TransferSession(
                sender, receiver, partitioned_rho=4, rng=random.Random(14),
                summary_policy=policy,
            )
            assert session.handshake()
            while session.request_next_partition():
                pass
            return session.stats.control_bytes

        by_bits = {
            bits: control_bytes(SummaryPolicy("bloom", {"bits_per_element": bits}))
            for bits in (4, 8, 16)
        }
        assert by_bits[4] < by_bits[8] < by_bits[16]
        assert control_bytes(None) == by_bits[8]  # the peers' DEFAULT_POLICY
