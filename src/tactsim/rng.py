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
state's XSL-RR. ``n`` steps at once take ``s`` to ``A_n*s + inc*G_n``,
where ``A_n = M**n`` and ``G_n = 1 + M + ... + M**(n-1)`` (mod 2**128).
``advance`` finds such a pair for any stride in O(log n) multiplies, by
F. Brown's arbitrary-stride algorithm ("Random Number Generation with
Arbitrary Strides", 1994), and ``Pcg64.jump(n)`` gives its generator's
pair. A caller that needs only some draws computes those and jumps
over the rest: simulation takes the pairs for n = 1..5, one tick's
draws, once, and crosses each run of ticks in one jump. All of it is
Python int arithmetic, without numpy.
"""

from __future__ import annotations

from operator import index

MASK32 = 2**32 - 1
MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
#: PCG64's multiplier (PCG_DEFAULT_MULTIPLIER_128).
MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
#: SeedSequence's hash constants.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def advance(mult: int, plus: int, n: int) -> tuple:
    """``(A, C)`` such that ``s -> A*s + C`` is ``n`` steps of ``s -> mult*s + plus``,
    mod 2**128: Brown's arbitrary-stride jump, O(log n) multiplies. A ValueError for n < 0."""
    if n < 0:
        raise ValueError(f"expected a non-negative number of steps, got {n}")
    acc_mult, acc_plus = 1, 0
    while n:
        if n & 1:
            acc_mult, acc_plus = acc_mult * mult & MASK128, (acc_plus * mult + plus) & MASK128
        mult, plus = mult * mult & MASK128, (mult + 1) * plus & MASK128
        n >>= 1
    return acc_mult, acc_plus


def output(state: int) -> int:
    """PCG64's raw 64-bit draw at a 128-bit state: its XSL-RR, the halves'
    XOR rotated right by the state's top six bits."""
    value = (state >> 64 ^ state) & MASK64
    return ((value << 64 | value) >> (state >> 122)) & MASK64


def uniform_of(raw: int) -> float:
    """``Generator.uniform(-1.0, 1.0)``'s value of one raw draw."""
    return -1.0 + 2.0 * ((raw >> 11) * 2.0**-53)


class Pcg64:
    """The values of ``numpy.random.default_rng(seed)``, drawn without ``numpy.random``.

    ``seed`` is a non-negative int or a list of them, as
    ``SeedSequence`` takes it; a negative one is a ValueError.
    """

    def __init__(self, seed):
        self.state, self.inc = seed_state(seed)
        self.half = None  # the high half of a raw draw whose low half was used

    def jump(self, draws: int) -> tuple:
        """``(A, C)`` such that ``state -> A*state + C`` (mod 2**128) is ``draws`` steps."""
        return advance(MULTIPLIER, self.inc, draws)

    def next64(self) -> int:
        """The next raw 64-bit draw: one step, then the new state's output."""
        self.state = state = (self.state * MULTIPLIER + self.inc) & MASK128
        return output(state)

    def next32(self) -> int:
        """The next 32-bit draw: a raw draw's low half, then its buffered high half."""
        if self.half is not None:
            value, self.half = self.half, None
            return value
        value = self.next64()
        self.half = value >> 32
        return value & MASK32

    def uniform(self, size: int) -> list:
        """``size`` floats of ``Generator.uniform(-1.0, 1.0, size)``."""
        return [uniform_of(self.next64()) for _ in range(size)]

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
