"""The deterministic 64-bit integer mixer.

This is the scalar workhorse underneath every sketch and filter in the
library.  It is a pure function of its inputs (no global state), so all
experiments are reproducible given a seed.
"""

_MASK64 = (1 << 64) - 1

# splitmix64 constants (Steele, Lea, Flood 2014).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def mix64(x: int, seed: int = 0) -> int:
    """Mix a 64-bit integer into a pseudo-random 64-bit integer.

    This is the splitmix64 finalizer applied to ``x + seed * gamma``.  It is
    bijective for a fixed seed, which matters for min-wise sketches: a
    bijection of the key universe preserves set sizes and intersections.

    Args:
        x: the input key (any non-negative int; only low 64 bits are used).
        seed: selects one function from the family.

    Returns:
        A value in ``[0, 2**64)``.
    """
    z = (x + (seed + 1) * _SM_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SM_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MUL2) & _MASK64
    return z ^ (z >> 31)
