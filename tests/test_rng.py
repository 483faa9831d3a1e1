"""``tactsim.rng`` against numpy's ``default_rng``, and against spelled-out draws.

``Pcg64`` must give numpy's values bit for bit: uniform lists of any
size drawn in sequence (compared through ``float.hex``), permutations,
and both on one generator, at seeds below and above 2**32 and at
``[seed, repeat]`` lists. The literal draws of seeds 1 and 7411 are
written here too, so a numpy whose raw stream differs fails with a
message that says which. Each jump of one to five draws, one tick's,
must reach the state of as many ``next64`` steps, and the jump over a run of n ticks, which
simulation takes once per run, the state of n single tick jumps and of
5n ``next64`` steps.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tactsim import rng
from tactsim.pipeline import BLOCK_TICKS
from tactsim.rng import Pcg64

SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**130),
    st.lists(st.integers(0, 2**40), min_size=2, max_size=2),  # kfold_split's [seed, repeat]
)

#: The first raw draws of ``default_rng(seed)``, its first ``uniform(-1.0, 1.0)``
#: and its ``permutation(10)``, each from a fresh generator.
SPELLED = {
    1: ((0x8306BDF37922E4FF, 0xF35196BBC152A866, 0x24E7A4F608EC18CD, 0xF2DAB0AED2AC6FD2),
        0.023643249400513433, [8, 4, 7, 0, 1, 2, 5, 9, 6, 3]),
    7411: ((0xDDA5DFFEA2635374, 0x3E1FD48F6DF84515, 0x54BDB98379BBA355, 0x7E57FFBA30C5D534),
           0.7316246026355437, [6, 0, 1, 2, 9, 3, 8, 7, 5, 4]),
}


def hexes(values) -> list:
    """``float.hex`` of each value: equal lists are equal bit for bit, signed zeros included."""
    return list(map(float.hex, values))


@pytest.mark.parametrize("seed", sorted(SPELLED))
def test_first_draws_are_spelled_out(seed):
    raw, first, order = SPELLED[seed]
    generator = Pcg64(seed)
    assert [generator.next64() for _ in raw] == list(raw)
    assert Pcg64(seed).uniform(1) == [first]
    assert Pcg64(seed).permutation(10) == order


@pytest.mark.parametrize("seed", sorted(SPELLED))
def test_numpy_still_draws_the_spelled_out_stream(seed):
    raw, first, order = SPELLED[seed]
    message = f"numpy {np.__version__} no longer draws PCG64's stream of default_rng({seed})"
    assert np.random.default_rng(seed).bit_generator.random_raw(len(raw)).tolist() == list(raw), (
        message)
    assert np.random.default_rng(seed).uniform(-1.0, 1.0) == first, message
    assert np.random.default_rng(seed).permutation(10).tolist() == order, message


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, sizes=st.lists(st.integers(0, 5120), max_size=4))
@example(seed=0, sizes=[0, 1, 5120, 0])
@example(seed=2**40 + 3, sizes=[16387, 7])
def test_uniform_blocks_match_numpy(seed, sizes):
    mine, numpy_rng = Pcg64(seed), np.random.default_rng(seed)
    for size in sizes:
        drawn = mine.uniform(size)
        assert all(type(value) is float for value in drawn)
        assert hexes(drawn) == hexes(numpy_rng.uniform(-1.0, 1.0, size).tolist()), (seed, size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(2, 1000))
@example(seed=0, n=2)
@example(seed=[7, 2], n=1000)
def test_permutation_matches_numpy(seed, n):
    assert Pcg64(seed).permutation(n) == np.random.default_rng(seed).permutation(n).tolist()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(2, 200), before=st.integers(0, 50), after=st.integers(0, 50))
def test_draws_in_sequence_share_one_stream(seed, n, before, after):
    """A permutation between uniform blocks, then a second one: numpy keeps
    an unused high half for the next 32-bit draw, across the uniforms."""
    mine, numpy_rng = Pcg64(seed), np.random.default_rng(seed)
    assert hexes(mine.uniform(before)) == hexes(numpy_rng.uniform(-1.0, 1.0, before).tolist())
    assert mine.permutation(n) == numpy_rng.permutation(n).tolist()
    assert hexes(mine.uniform(after)) == hexes(numpy_rng.uniform(-1.0, 1.0, after).tolist())
    assert mine.permutation(n + 1) == numpy_rng.permutation(n + 1).tolist()


def test_seeding_matches_numpy_state():
    for seed in (0, 1, 7411, 2**32, 2**40 + 3, 2**200 + 17, [], [7, 2], list(range(1, 12))):
        state = np.random.default_rng(seed).bit_generator.state["state"]
        assert rng.seed_state(seed) == (state["state"], state["inc"]), seed


def test_zero_draws():
    generator = Pcg64(1)
    assert generator.uniform(0) == []
    assert generator.permutation(0) == [] and generator.permutation(1) == [0]
    assert generator.uniform(1) == [SPELLED[1][1]]  # nothing was drawn


@pytest.mark.parametrize("seed", (-1, [3, -2]))
def test_negative_seed_is_a_value_error(seed):
    with pytest.raises(ValueError, match="non-negative"):
        Pcg64(seed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=SEEDS, draws=st.integers(0, 20))
def test_jumps_reach_the_states_of_one_to_five_steps(seed, draws):
    """After any number of draws, ``A_k*state + inc*G_k`` is the state
    that k more ``next64`` calls reach, and its output their last draw."""
    generator = Pcg64(seed)
    for _ in range(draws):
        generator.next64()
    start = generator.state
    for k in range(1, 6):
        a, b = generator.jump(k)
        value = generator.next64()
        assert generator.state == (a * start + b) & rng.MASK128, k
        assert rng.output(generator.state) == value, k


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=SEEDS, ticks=st.integers(0, 2 * BLOCK_TICKS))
@example(seed=1, ticks=0)
@example(seed=7411, ticks=2 * BLOCK_TICKS)
def test_run_jump_reaches_the_state_of_single_tick_jumps(seed, ticks):
    """``jump(5n)`` is n tick jumps ``(A_5, inc*G_5)`` and 5n ``next64`` calls,
    and its state's output the last of those draws."""
    generator = Pcg64(seed)
    start = state = generator.state
    tick_a, tick_c = generator.jump(5)
    for _ in range(ticks):
        state = (tick_a * state + tick_c) & rng.MASK128
    run_a, run_c = generator.jump(5 * ticks)
    assert (run_a * start + run_c) & rng.MASK128 == state
    draws = [generator.next64() for _ in range(5 * ticks)]
    assert generator.state == state
    assert draws[-1:] == ([rng.output(state)] if ticks else [])


def test_negative_jump_is_a_value_error():
    with pytest.raises(ValueError, match="non-negative"):
        Pcg64(1).jump(-1)
