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

The n-th output depends only on seed + n * 0x9E3779B97F4A7C15 (mod 2**64),
so ``randoms()`` computes 256 of them at once, as SIMD within a register
(Lamport, CACM 18(8), 1975) on one Python int: draw i of a block sits in bits
128*i .. 128*i+127, its 128-bit lane, and every step of the mixer acts on
all lanes in one big-int operation.  Lanes never carry into each other
because each lane holds a value below 2**64 before every add or multiply:
the sum of two such values, and the product of one with a 64-bit mixer
constant, stay below 2**128.  A right shift does move the next lane's low
bits into a lane's top half, so a mask keeping each lane's low 64 bits
follows every add, xor-shift and multiply.  The final xor-shift and the
``>> 11`` leave garbage only in the top half, which is dropped when the
block is read back as 64-bit words.  The result is the very floats that successive
``random()`` calls give, at under half the cost per draw on a long stream.
One block costs about as much as 35 scalar draws, so a short stream, such
as a net's initial weights, stays scalar.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat
from operator import mul

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_UNIT = 1.0 / (1 << 53)

# The block kernel's constants: 256 lanes of 16 bytes each.
_LANES = 256
_BLOCK_BYTES = 16 * _LANES
_ONES = int.from_bytes((b"\1" + bytes(15)) * _LANES, "little")  # 1 in every lane
_LANE_MASK = _ONES * _MASK64
_LANE_OFFSETS = int.from_bytes(  # lane i: i + 1 increments, the state of draw i
    b"".join((i * _GOLDEN & _MASK64).to_bytes(16, "little") for i in range(1, _LANES + 1)),
    "little",
)
_BLOCK_STEP = _ONES * (_LANES * _GOLDEN & _MASK64)  # every lane _LANES draws on
# Where each lane's low word sits among a block's native-order words: written
# in the machine's byte order, a big-endian block starts with the last lane's
# high word.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


class SplitMix64:
    """Deterministic 64-bit generator; one instance per independent stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        # A seed outside [0, 2**64 - 1] would alias one inside it (-1 and
        # 2**64 - 1 give the same stream), and a bool or a float is no seed.
        if type(seed) is not int or not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an int in [0, {_MASK64}], got {seed!r}")
        self._state = seed

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

    def randoms(self):
        """Endless iterator over the floats successive random() calls would give.

        Computed 256 at a time by the block kernel (see the module docstring);
        the generator's own state does not move.
        """
        return chain.from_iterable(_blocks((self._state * _ONES + _LANE_OFFSETS) & _LANE_MASK))


def _blocks(states: int):
    """Yield, block after block, the random() floats of the lane states `states`."""
    while True:
        z = states
        z = ((z ^ (z >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
        z = ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2 & _LANE_MASK
        words = memoryview(((z ^ (z >> 31)) >> 11).to_bytes(_BLOCK_BYTES, sys.byteorder))
        yield map(mul, repeat(_DOUBLE_UNIT), words.cast("Q")[_LOW_WORDS])
        states = (states + _BLOCK_STEP) & _LANE_MASK
