"""Seeded deterministic random numbers (splitmix64).

Every stochastic choice in this package (weight initialisation, daylight
trajectories) draws from this generator rather than ``random.Random`` so that
a seed pins the exact stream of draws independently of the Python version or
platform.

The algorithm is splitmix64 (Steele, Lea & Flood; public domain): the state
advances by the 64-bit golden-ratio increment and the output is the state
passed through a two-round xor-shift-multiply mixer.

    state   += 0x9E3779B97F4A7C15                    (mod 2**64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9         (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB         (mod 2**64)
    output = z ^ (z >> 31)

Floats in [0, 1) take the top 53 bits of one output word, so ``random()``
consumes exactly one 64-bit draw.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_UNIT = 1.0 / (1 << 53)


class SplitMix64:
    """Deterministic 64-bit generator; one instance per independent stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit word of the stream."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision; one u64 consumed."""
        return (self.next_u64() >> 11) * _DOUBLE_UNIT

    def uniform(self, lo: float, hi: float) -> float:
        """Float in [lo, hi); one u64 consumed."""
        return lo + (hi - lo) * self.random()

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        # Reject draws from the incomplete top block so every value in
        # [0, n) keeps equal probability.
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n
