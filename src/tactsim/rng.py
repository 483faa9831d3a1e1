"""numpy's ``default_rng`` stream, spelled out: SeedSequence, PCG64 and two draws.

``Pcg64(seed)`` gives the values of ``numpy.random.default_rng(seed)`` for
a non-negative int seed or a list of them, without importing
``numpy.random``. numpy's RNG policy (NEP 19) fixes only the seeding and
PCG64's raw 64-bit stream across releases, so the two draws tactsim uses
are written out here from those:

- ``uniform(size)``: ``Generator.uniform(-1.0, 1.0, size)``, each value
  ``-1.0 + 2.0 * ((raw >> 11) * 2**-53)`` of one raw draw;
- ``permutation(n)``: ``Generator.permutation(n)``, a Fisher-Yates
  shuffle from the top down over 32-bit draws (each raw draw gives two,
  its low half first), each index masked to the position's bit length
  and redrawn while above it.

PCG64 steps its 128-bit state by ``s -> M*s + inc`` and outputs the new
state's XSL-RR. A block of ``n`` uniforms takes the states
``s_k = A_k*s_0 + inc*G_k`` for k = 1..n in one pass of array
arithmetic on 64-bit limbs, where ``A_k = M**k`` and
``G_k = 1 + M + ... + M**(k-1)`` (mod 2**128) are tables shared by
every generator in the process. Every wrapping multiply is on arrays or
Python ints, and every scalar operand is an explicit ``np.uint64``,
which keeps the arithmetic the same under numpy 1.x's promotion rules
and 2.x's.
"""

from __future__ import annotations

from operator import index

import numpy as np

MASK32 = 2**32 - 1
MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
#: PCG64's multiplier (PCG_DEFAULT_MULTIPLIER_128).
MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
#: SeedSequence's hash constants.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: Most states one array pass computes; a longer draw takes several.
TABLE_MAX = 8192

#: ``(A_hi, A_lo, G_hi, G_lo)`` of k = 1..len, built on first use and extended on demand.
_tables = None


def _entropy_words(seed) -> list:
    """SeedSequence's entropy: each int's little-endian 32-bit words, in order."""
    words = []
    for value in (seed if isinstance(seed, (list, tuple)) else (seed,)):
        value = index(value)
        if value < 0:
            raise ValueError(f"expected a non-negative integer seed, got {value}")
        words.append(value & MASK32)
        while value > MASK32:
            value >>= 32
            words.append(value & MASK32)
    return words


def seed_state(seed) -> tuple:
    """PCG64's ``(state, inc)`` after seeding from ``SeedSequence(seed)``."""
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    entropy = _entropy_words(seed)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = INIT_B, []
    for i in range(8):  # generate_state(4, uint64): eight 32-bit words
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        words.append(value ^ value >> 16)
    seeds = [low | high << 32 for low, high in zip(words[::2], words[1::2])]
    # pcg64_set_seed, then srandom: the sequence picks the increment, one step, add, one step
    inc = ((seeds[2] << 64 | seeds[3]) << 1 | 1) & MASK128
    state = (inc + (seeds[0] << 64 | seeds[1])) & MASK128
    return (state * MULTIPLIER + inc) & MASK128, inc


def _times(hi, lo, c: int):
    """``(hi, lo) * c`` mod 2**128, for uint64 limb arrays and a Python int ``c``."""
    u32, low32 = np.uint64(32), np.uint64(MASK32)
    c_lo = c & MASK64
    b0, b1 = np.uint64(c_lo & MASK32), np.uint64(c_lo >> 32)
    a0, a1 = lo & low32, lo >> u32  # lo * c_lo in 32-bit halves, for its high word
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> u32) + (p01 & low32) + (p10 & low32)) >> u32
    top = (a1 * b1 + (p01 >> u32) + (p10 >> u32) + carry
           + hi * np.uint64(c_lo) + lo * np.uint64(c >> 64))
    return top, lo * np.uint64(c_lo)


def _plus(hi, lo, c_hi, c_lo):
    """``(hi, lo) + (c_hi, c_lo)`` mod 2**128; either pair may be uint64 scalars."""
    low = lo + c_lo
    return hi + c_hi + (low < lo).astype(np.uint64), low


def jump_tables(n: int):
    """``(A_hi, A_lo, G_hi, G_lo)`` for k = 1..n, as read-only uint64 arrays.

    Built by doubling, ``T_{k+m} = T_m o T_k``: ``A_{k+m} = A_m*A_k`` and
    ``G_{k+m} = A_m*G_k + G_m``, and kept for later calls.
    """
    global _tables
    tables = _tables or tuple(np.array([value], dtype=np.uint64)  # A_1 = M, G_1 = 1
                              for value in (MULTIPLIER >> 64, MULTIPLIER & MASK64, 0, 1))
    while tables[0].size < n:
        a_hi, a_lo, g_hi, g_lo = tables
        grow = min(a_lo.size, n - a_lo.size)
        a_m = int(a_hi[-1]) << 64 | int(a_lo[-1])
        new = (*_times(a_hi[:grow], a_lo[:grow], a_m),
               *_plus(*_times(g_hi[:grow], g_lo[:grow], a_m), g_hi[-1], g_lo[-1]))
        tables = tuple(map(np.concatenate, zip(tables, new)))
    for table in tables:
        table.flags.writeable = False
    _tables = tables
    return tuple(table[:n] for table in tables)


class Pcg64:
    """The values of ``numpy.random.default_rng(seed)``, drawn without ``numpy.random``.

    ``seed`` is a non-negative int or a list of them, as
    ``SeedSequence`` takes it; a negative one is a ValueError.
    """

    def __init__(self, seed):
        self.state, self.inc = seed_state(seed)
        self.half = None  # the high half of a raw draw whose low half was used
        self.offsets = None  # (inc * G_k) for the blocks of uniforms, once per generator

    def next64(self) -> int:
        """The next raw 64-bit draw: one step, then XSL-RR of the new state."""
        self.state = state = (self.state * MULTIPLIER + self.inc) & MASK128
        value, rot = (state >> 64 ^ state) & MASK64, state >> 122
        return (value >> rot | value << (64 - rot)) & MASK64

    def next32(self) -> int:
        """The next 32-bit draw: a raw draw's low half, then its buffered high half."""
        if self.half is not None:
            value, self.half = self.half, None
            return value
        value = self.next64()
        self.half = value >> 32
        return value & MASK32

    def raw(self, size: int):
        """The next ``size`` raw draws, as a uint64 array."""
        blocks = [self._block(min(left, TABLE_MAX)) for left in range(size, 0, -TABLE_MAX)]
        return blocks[0] if len(blocks) == 1 else np.concatenate(
            [np.zeros(0, dtype=np.uint64), *blocks])

    def _block(self, n: int):
        """The next ``n`` raw draws, 1 <= n <= TABLE_MAX, from one pass over the tables."""
        a_hi, a_lo, g_hi, g_lo = jump_tables(n)
        if self.offsets is None or self.offsets[0].size < n:
            self.offsets = _times(g_hi, g_lo, self.inc)
        s_hi, s_lo = _plus(*_times(a_hi, a_lo, self.state),
                           self.offsets[0][:n], self.offsets[1][:n])
        self.state = int(s_hi[-1]) << 64 | int(s_lo[-1])
        value, rot = s_hi ^ s_lo, s_hi >> np.uint64(58)  # XSL-RR
        return value >> rot | value << ((np.uint64(64) - rot) & np.uint64(63))

    def uniform(self, size: int):
        """``size`` floats of ``Generator.uniform(-1.0, 1.0, size)``."""
        return -1.0 + 2.0 * ((self.raw(size) >> np.uint64(11)) * 2.0**-53)

    def permutation(self, n: int) -> list:
        """``Generator.permutation(n)``'s order of ``range(n)``, as a list; n < 2**32."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            order[i], order[j] = order[j], order[i]
        return order
