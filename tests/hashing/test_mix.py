"""Tests for the 64-bit mixer."""

from repro.hashing.mix import mix64


class TestMix64:
    def test_range(self):
        for x in (0, 1, 17, 2**63, 2**64 - 1):
            assert 0 <= mix64(x) < 2**64

    def test_deterministic(self):
        assert mix64(12345, seed=7) == mix64(12345, seed=7)

    def test_seed_changes_output(self):
        assert mix64(12345, seed=1) != mix64(12345, seed=2)

    def test_bijective_for_fixed_seed(self):
        # A bijection restricted to a small sample has no collisions.
        outputs = {mix64(x, seed=3) for x in range(10_000)}
        assert len(outputs) == 10_000

    def test_avalanche(self):
        # Flipping one input bit should flip roughly half the output bits.
        base = mix64(0xABCDEF, seed=0)
        flipped = mix64(0xABCDEF ^ 1, seed=0)
        differing = bin(base ^ flipped).count("1")
        assert 16 <= differing <= 48

    def test_uniformity_of_low_bits(self):
        # Low bits modulo small m should be near-uniform.
        counts = [0] * 8
        for x in range(8_000):
            counts[mix64(x) % 8] += 1
        assert max(counts) - min(counts) < 300
