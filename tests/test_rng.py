"""Tests for the SplitMix64 generator: frozen streams, ranges, determinism."""

import importlib.util
import struct
import sys
from itertools import islice

import pytest

import daylux.rng as rng_mod
from daylux.rng import SplitMix64


def test_u64_stream_frozen():
    # first three raw outputs for seed 42, fixed by the algorithm constants
    r = SplitMix64(42)
    assert [r.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_random_stream_frozen():
    r = SplitMix64(42)
    assert [r.random() for _ in range(3)] == [
        0.7415648787718233,
        0.1599103928769201,
        0.27860113025513866,
    ]


def test_random_unit_interval():
    r = SplitMix64(7)
    for _ in range(5000):
        x = r.random()
        assert 0.0 <= x < 1.0


def test_uniform_bounds():
    r = SplitMix64(3)
    for _ in range(2000):
        x = r.uniform(-0.5, 0.5)
        assert -0.5 <= x <= 0.5


def test_same_seed_same_stream():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_u64_width():
    r = SplitMix64(2**64 - 1)  # the largest seed
    for _ in range(200):
        v = r.next_u64()
        assert 0 <= v < 2**64


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 2, -(2**64) + 1])
def test_a_seed_outside_64_bits_is_rejected_not_aliased(seed):
    # -1 would give the stream of 2**64 - 1, and 2**64 + 2 that of 2
    message = rf"^seed must be an int in \[0, {2**64 - 1}\], got {seed}$"
    with pytest.raises(ValueError, match=message):
        SplitMix64(seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, False, "2", None])
def test_a_seed_that_is_not_an_int_is_rejected(seed):
    with pytest.raises(ValueError, match=r"^seed must be an int in \[0, \d+\], got "):
        SplitMix64(seed)


# The increment is about 0.62 * 2**64, so the state passes 2**64 on most
# draws; this seed makes it exactly 0 at the 300th draw, inside the second block.
WRAPS_TO_ZERO_IN_BLOCK_TWO = -300 * 0x9E3779B97F4A7C15 % 2**64


@pytest.mark.parametrize("seed", [0, 2, 2**64 - 1, WRAPS_TO_ZERO_IN_BLOCK_TWO])
def test_randoms_equals_successive_random_calls(seed):
    r = SplitMix64(seed)
    blocked = list(islice(r.randoms(), 5000))
    scalar = SplitMix64(seed)
    assert blocked == [scalar.random() for _ in range(5000)]
    assert r.random() == blocked[0]  # the stream left the generator where it was


def test_a_big_endian_host_reads_each_lanes_low_word(monkeypatch):
    # the module as a big-endian host loads it, and a block as that host
    # lays it out: each lane's high word first, the last lane first
    monkeypatch.setattr(sys, "byteorder", "big")
    spec = importlib.util.spec_from_file_location("rng_big_endian", rng_mod.__file__)
    big = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(big)
    lows = [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(big._LANES)]
    block = sum((low | (~i % 2**64) << 64) << 128 * i for i, low in enumerate(lows))
    words = struct.unpack(f">{2 * big._LANES}Q", block.to_bytes(big._BLOCK_BYTES, "big"))
    assert list(words[big._LOW_WORDS]) == lows
