"""Seeded random generators shared by every randomized operation.

The whole pipeline draws from PCG64: the 128-bit LCG with the XSL-RR output
function (O'Neill 2014, HMC-CS-2014-0905), seeded through numpy's
`SeedSequence` hash. `make_rng(seed)` reproduces numpy's
`Generator(PCG64(seed))` bit for bit for the one call the package makes,
`permutation(n)`, so split and subset files written by earlier numpy-backed
releases are unchanged. The stream depends only on the
seed, never on the platform or the Python version.
"""

from __future__ import annotations

import operator

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1

# SeedSequence constants (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16

PCG_MULTIPLIER = (2549297995355413924 << 64) | 4865540595714422341


def _entropy_words(seed) -> list[int]:
    """The seed as little-endian 32-bit words, [0] for seed 0."""
    try:
        n = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}") from None
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    words = [n & MASK32]
    n >>= 32
    while n:
        words.append(n & MASK32)
        n >>= 32
    return words


def _seed_state(seed) -> tuple[int, int]:
    """SeedSequence(seed).generate_state(4, uint64) as (initstate, initseq)."""
    entropy = _entropy_words(seed)
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * MULT_A) & MASK32
        value = (value * hash_const) & MASK32
        return value ^ (value >> XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ (result >> XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = INIT_B
    state = []
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = (hash_const * MULT_B) & MASK32
        value = (value * hash_const) & MASK32
        state.append(value ^ (value >> XSHIFT))
    w = [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class PCG64:
    """PCG64 (XSL-RR 128/64) with numpy's seeding, 32-bit buffering and permutations."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        self._inc = (initseq << 1 | 1) & MASK128
        self._state = ((self._inc + initstate) * PCG_MULTIPLIER + self._inc) & MASK128
        self._half = None  # high 32 bits of the last 64-bit draw, served by the next 32-bit draw

    def next_uint64(self) -> int:
        state = (self._state * PCG_MULTIPLIER + self._inc) & MASK128
        self._state = state
        rot = state >> 122
        x = ((state >> 64) ^ state) & MASK64
        return ((x >> rot) | (x << (64 - rot))) & MASK64

    def next_uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self.next_uint64()
        self._half = x >> 32
        return x & MASK32

    def _interval(self, high: int) -> int:
        """Uniform in [0, high] by masked rejection, as numpy's `random_interval`."""
        if high == 0:
            return 0
        mask = (1 << high.bit_length()) - 1
        draw = self.next_uint32 if high <= MASK32 else self.next_uint64
        while True:
            value = draw() & mask
            if value <= high:
                return value

    def permutation(self, n: int) -> list[int]:
        """A shuffled `range(n)`: Fisher-Yates from the last index down to 1."""
        out = list(range(operator.index(n)))
        interval = self._interval
        for i in range(len(out) - 1, 0, -1):
            j = interval(i)
            out[i], out[j] = out[j], out[i]
        return out


def make_rng(seed: int) -> PCG64:
    """Return the canonical seeded generator (PCG64) used across the package."""
    return PCG64(seed)
