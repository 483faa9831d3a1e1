"""Property tests: the fast paths against per-tick references.

The chain's reference is ``tests/reference.py``: ``stream``, ``frames``
and ``summary``, written tick by tick from the per-value stage functions.
``simulate``, ``estimate`` and ``report --truth --rmse``, run through
``cli.main`` on random configs at both preset gains, scenarios and
seeds, must write all three byte for byte. ``LoadScenario.at`` must be
its ``linear_hold`` at any time, and ``LoadScenario.runs``, by which the
block simulator and ``report --truth`` pair times with steps, must split
sorted times into runs on the steps it gives.

The block simulator must write ``stream``'s text for any valid
configuration, scenario and block size. On scenarios whose loads repeat,
signed zeros and piecewise edges among them, its table of one row per
distinct load must give the same text whichever channels it finds
constant; the examples add no noise, a bridge input a tiny negative at
rest, a 12-bit ADC and noise wide enough to spread one load over many
codes. Scenarios that press one force, 0.0 and -0.0 among them, on
several quadrant sets must give ``apply_load``'s bits in each step's
table row and the same text, though each channel's distinct rises are
converted once. Holds of 30-120 s, in blocks that keep them runs of
hundreds of ticks, take the path that sorts a run's draws and bisects
them for the draws where the code changes; the same examples check it.
``_run_codes`` itself must give each draw's own code for any monotone
step function of the draw, rising or falling, on runs of 1-2,000 draws
either side of the bisection threshold, repeated draws and thresholds
past every draw included, and compute no more codes than the run has
draws.

The code-indexed ``estimate_lines`` must write the lines of ``frames``,
down to the sign of a zero. Each element's threshold code, the first
code whose signal meets the element's threshold, must give ``signal >=
threshold`` at every code of ADCs of 1-16 bits, and around it at 53
bits. The running-sum filter of ``StreamState`` must give
``moving_average`` of each window, bit for bit, for any window length
and any forces, subnormals, signed zeros and runs of repeats included.

The block text paths of the three replay commands must agree with the
per-item paths for any block size and any mix of spellings, comments
and bad lines. ``simulate_plan``'s blocks with ``format_sample_block``
write the lines of ``simulate_samples``. ``estimate_lines`` writes the
frames of ``estimate_frames`` over ``read_samples``, each of which must
be the line ``frames`` gives for its sample, and fails on the same line
with the same message after writing the same frames. A block with blank or ``#`` lines goes back
through the block pass without them before any line is respelled.
``summarize_lines`` gives ``summary`` of the lines ``parse_frame``
takes, or the same error. ``cross_validate``, which slices one
design matrix per run and scores each fold's models in one pass, must
give the ``FitReport`` of ``reference_cross_validate``, one
``fit_polynomial`` and two ``evaluate_model`` calls per fold and order,
or fail with the same error. ``kfold_split`` must give the fold ids of
``reference_kfold_split``, the chunk loop it replaced.

The stage properties check the balanced null, the monotone bridge and
the half-LSB quantization bound on random configurations, and that the
scalar amplifier and ADC stages clip and round as numpy's
``minimum``/``maximum``/``floor`` do, down to signed zeros and NaN.
``rmse`` must give the same float on an array, on its ``tolist()``, as
the numpy-scalar arithmetic it replaced and as a generator of
``(p - t) ** 2``, overflow and its messages included, and
``fsum_counted`` the ``math.fsum`` of its non-negative terms written
out, read to the end, with ``inf`` where the sum overflows. Model
inversion must find the first crossing of the force on random models of
orders 2-5, bit for bit as a Newton polish by ``np.polyval`` finds it,
and every file format must read back what it wrote.
"""

import io
import math
import os
import random
import tempfile
from bisect import bisect_right
from collections import deque
from contextlib import redirect_stdout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tactsim import (
    AdcConfig,
    BridgeConfig,
    CalibrationDataset,
    ElementModel,
    EstimateFrame,
    EstimatorConfig,
    FabricModel,
    FitError,
    FitReport,
    LoadScenario,
    LoadStep,
    ParseError,
    PolynomialModel,
    SampleLine,
    StreamState,
    ToolkitConfig,
    UsageError,
    adc_sample,
    amplify,
    apply_load,
    bridge_output,
    cross_validate,
    default_config,
    dequantize,
    element_signal_thresholds,
    evaluate_model,
    fit_polynomial,
    format_frame,
    format_sample_line,
    invert_model,
    kfold_split,
    load_dataset,
    load_model,
    load_scenario,
    moving_average,
    parse_frame,
    parse_sample_line,
    rmse,
    save_dataset,
    save_model,
    save_scenario,
)
from tactsim import cli, pipeline
from tactsim.config import channel_signal
from tactsim.estimator import PATTERNS, RANGE_TABLE, exact_units
from tactsim.rng import uniform_of
from tactsim.streams import format_sample_block
from tactsim.units import fsum_counted

import reference
from conftest import reference_replay

QUADRANTS = (1, 2, 3, 4)


def plan_text(cfg: ToolkitConfig, scenario: LoadScenario, seed: int, block: int) -> str:
    """The text of ``simulate_plan``'s blocks of ``block`` ticks, as ``simulate`` writes it."""
    with mock.patch.object(pipeline, "BLOCK_TICKS", block):
        blocks = pipeline.simulate_plan(cfg, scenario, seed=seed)[0]()
        return "".join(format_sample_block(times, rows) for times, rows in blocks)


@st.composite
def configs(draw):
    fabric_rest = draw(st.floats(10e3, 1e6))
    ratio = draw(st.sampled_from((1.0, 0.5, 2.0, 3.7)))
    rail_low = draw(st.floats(-1.0, 1.0))
    bridge = BridgeConfig(
        supply_voltage=draw(st.floats(1.0, 12.0)),
        r1=ratio * 100e3,
        r2=100e3,
        r3=ratio * fabric_rest,
        rx_rest=fabric_rest,
        amplifier_gain=draw(st.sampled_from((22.0, 41.36)) | st.floats(0.5, 200.0)),
        noise_fraction=draw(st.floats(0.0, 0.2)),
        rail_low=rail_low,
        rail_high=rail_low + draw(st.floats(0.5, 8.0)),
    )
    fabric = FabricModel(
        rest_resistance=fabric_rest,
        max_fractional_delta=draw(st.floats(0.01, 1.0)),
        full_scale_force=draw(st.floats(0.5, 5.0)),
    )
    elements = []
    for _ in QUADRANTS:
        threshold = draw(st.floats(0.02, 0.5))
        elements.append(ElementModel(
            rest_resistance=draw(st.floats(1e6, 2e6)),
            trigger_threshold=threshold,
            active_signal_delta=draw(st.floats(0.01, 1.0)),
            saturation_force=threshold + draw(st.floats(0.05, 2.0)),
        ))
    adc = AdcConfig(
        bits=draw(st.integers(1, 12)),
        sample_rate=draw(st.sampled_from((9.6, 1.0)) | st.floats(0.5, 50.0)),
        full_scale=draw(st.floats(1.0, 10.0)),
    )
    return ToolkitConfig(fabric=fabric, elements=tuple(elements), bridge=bridge, adc=adc)


@st.composite
def scenarios(draw, max_duration=20.0):
    gaps = draw(st.lists(st.floats(0.01, max_duration / 4), min_size=0, max_size=6))
    times = [-draw(st.sampled_from((0.0, 0.0, 0.5)))]
    for gap in gaps:
        times.append(times[-1] + gap)
    steps = []
    for time in times:
        quadrants = frozenset(draw(st.sets(st.sampled_from(QUADRANTS))))
        zero = st.sampled_from((0.0, -0.0))
        force = draw(zero | st.floats(0.0, 4.0) if quadrants else zero)
        steps.append(LoadStep(time, force, quadrants))
    return LoadScenario(tuple(steps))


@settings(max_examples=60, deadline=None)
@given(cfg=configs(), scenario=scenarios(), seed=st.integers(0, 2**32 - 1),
       block=st.integers(1, 40))
def test_block_stream_matches_per_tick_reference(cfg, scenario, seed, block):
    with mock.patch.object(pipeline, "BLOCK_TICKS", block):
        stream = list(pipeline.simulate_samples(cfg, scenario, seed=seed))
    text = plan_text(cfg, scenario, seed, block)
    assert text == "".join(reference.stream(cfg, scenario, seed))
    assert text == "".join(format_sample_line(sample) + "\n" for sample in stream)
    for sample in stream:
        assert type(sample.time) is float
        assert all(type(code) is int for code in sample.channels)


@st.composite
def repeating_scenarios(draw, cfg: ToolkitConfig, gaps=st.lists(st.floats(0.01, 1.0), max_size=30)):
    """Scenarios of steps ``gaps`` apart (by default up to 31 steps) drawn
    from a small pool of loads, so that loads repeat: -0.0, 0.0, every
    piecewise edge of ``cfg`` and two random forces, pressed on up to three
    random quadrant sets."""
    forces = [-0.0, 0.0, cfg.fabric.full_scale_force,
              *draw(st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2))]
    for element in cfg.elements:
        forces += [element.trigger_threshold, element.saturation_force]
    pool = draw(st.lists(st.sets(st.sampled_from(QUADRANTS)).map(frozenset),
                         min_size=1, max_size=3))
    times = [-draw(st.sampled_from((0.0, 0.0, 0.5)))]
    for gap in draw(gaps):
        times.append(times[-1] + gap)
    steps = []
    for time in times:
        force, quadrants = draw(st.sampled_from(forces)), draw(st.sampled_from(pool))
        steps.append(LoadStep(time, force, quadrants if quadrants or not force
                              else frozenset(QUADRANTS)))
    return LoadScenario(tuple(steps))


@st.composite
def repeating_cases(draw):
    """A config and a scenario of repeating loads for it."""
    cfg = draw(configs())
    return cfg, draw(repeating_scenarios(cfg))


def edge_case(bridge=BridgeConfig(), adc=AdcConfig(), hold=0.7):
    """The default config with ``bridge`` and ``adc``, and a scenario that
    returns to a rest, a light press, a heavy one and full scale, each
    load held ``hold`` seconds."""
    cfg = default_config(bridge=bridge, adc=adc)
    loads = [(0.0, ()), (0.3, (1,)), (-0.0, ()), (1.2, (1, 2, 3, 4)), (0.3, (1,)),
             (0.0, ()), (cfg.fabric.full_scale_force, (2, 3)), (0.3, (1,)), (0.0, ())]
    return cfg, LoadScenario(tuple(LoadStep(hold * k, force, frozenset(quadrants))
                                   for k, (force, quadrants) in enumerate(loads)))


@settings(max_examples=60, deadline=None)
@given(case=repeating_cases(), seed=st.integers(0, 2**32 - 1), block=st.integers(1, 40))
# No noise: every channel keeps its code, and every draw is stepped over.
@example(case=edge_case(BridgeConfig(noise_fraction=0.0)), seed=1, block=7)
# Balanced only within is_balanced's 1e-9: the fabric's input at rest is a
# tiny negative, so its amplifier output falls as its draw rises.
@example(case=edge_case(BridgeConfig(r3=100e3 * (1 + 5e-10), rail_low=-1.0)), seed=2, block=40)
@example(case=edge_case(adc=AdcConfig(bits=12)), seed=7411, block=13)
# Noise so wide that one load's codes span many values.
@example(case=edge_case(BridgeConfig(amplifier_gain=22.0, noise_fraction=0.9),
                        AdcConfig(bits=12)), seed=3, block=5)
def test_distinct_load_table_matches_per_step_reference(case, seed, block):
    cfg, scenario = case
    deltas, _ = pipeline._load_table(cfg, scenario)
    assert len(deltas) == len({(step.force.hex(), step.quadrants) for step in scenario.steps})
    assert plan_text(cfg, scenario, seed, block) == "".join(reference.stream(cfg, scenario, seed))


@st.composite
def shared_force_cases(draw):
    """A config and a scenario of up to 31 steps whose forces, 0.0 and -0.0
    always among them, are each pressed on several quadrant sets, the
    empty set included for a zero."""
    cfg = draw(configs())
    forces = [0.0, -0.0, *draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3))]
    times = [-draw(st.sampled_from((0.0, 0.0, 0.5)))]
    for gap in draw(st.lists(st.floats(0.01, 1.0), max_size=30)):
        times.append(times[-1] + gap)
    steps = []
    for time in times:
        force = draw(st.sampled_from(forces))
        quadrants = frozenset(draw(st.sets(st.sampled_from(QUADRANTS), min_size=0 if not force
                                           else 1)))
        steps.append(LoadStep(time, force, quadrants))
    return cfg, LoadScenario(tuple(steps))


def shared_force_case(bridge=BridgeConfig(), adc=AdcConfig()):
    """The default config with ``bridge`` and ``adc``, and 0.3 N, 0.0 and
    -0.0 each on several quadrant sets, two steps a second."""
    loads = [(0.0, ()), (0.3, (1,)), (-0.0, (1, 2)), (0.3, (2, 3)), (0.0, (1, 2)),
             (-0.0, ()), (0.3, (1, 2, 3, 4)), (0.0, (3,)), (-0.0, (3,)), (0.3, (1,)), (0.0, ())]
    steps = (LoadStep(0.5 * k, force, frozenset(quadrants))
             for k, (force, quadrants) in enumerate(loads))
    return default_config(bridge=bridge, adc=adc), LoadScenario(tuple(steps))


@settings(max_examples=60, deadline=None)
@given(case=shared_force_cases(), seed=st.integers(0, 2**32 - 1), block=st.integers(1, 40))
@example(case=shared_force_case(), seed=1, block=7)
@example(case=shared_force_case(adc=AdcConfig(bits=12)), seed=7411, block=13)
@example(case=shared_force_case(BridgeConfig(r3=100e3 * (1 + 5e-10), rail_low=-1.0)), seed=2,
         block=40)
def test_loads_that_share_a_force_match_per_step_reference(case, seed, block):
    """A force, signed zeros included, under several quadrant sets: each
    step's row of ``_load_table`` holds ``apply_load``'s bits, and the
    text is ``reference.stream``'s, though the set-up converts
    each channel's rise once, with -0.0 and 0.0 in one entry."""
    cfg, scenario = case
    deltas, load_of_step = pipeline._load_table(cfg, scenario)
    for step, row in zip(scenario.steps, load_of_step, strict=True):
        fabric, elements = apply_load(scenario, cfg.fabric, cfg.elements, step.time)
        expected = [fabric, *(r - e.rest_resistance for r, e in zip(elements, cfg.elements))]
        assert [x.hex() for x in deltas[row]] == [x.hex() for x in expected]
    assert plan_text(cfg, scenario, seed, block) == "".join(reference.stream(cfg, scenario, seed))


@st.composite
def long_hold_cases(draw):
    """A config and a scenario of up to four repeating loads, each held 30-120 s."""
    cfg = draw(configs())
    return cfg, draw(repeating_scenarios(cfg, st.lists(st.floats(30.0, 120.0), max_size=3)))


@settings(max_examples=20, deadline=None)
@given(case=long_hold_cases(), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from((pipeline.BLOCK_TICKS, 333)))
@example(case=edge_case(hold=60.0), seed=1, block=pipeline.BLOCK_TICKS)
@example(case=edge_case(BridgeConfig(r3=100e3 * (1 + 5e-10), rail_low=-1.0), hold=30.0),
         seed=2, block=pipeline.BLOCK_TICKS)
@example(case=edge_case(adc=AdcConfig(bits=12), hold=45.0), seed=7411, block=pipeline.BLOCK_TICKS)
@example(case=edge_case(BridgeConfig(amplifier_gain=22.0, noise_fraction=0.9), AdcConfig(bits=12),
                        hold=120.0), seed=3, block=pipeline.BLOCK_TICKS)
def test_long_holds_match_per_step_reference(case, seed, block):
    """Runs of hundreds of ticks on one load, where ``simulate_plan`` sorts
    each live channel's draws and finds its codes by bisection, unless the
    run is short against its code span (the 12-bit ADC at 90% noise)."""
    cfg, scenario = case
    assert plan_text(cfg, scenario, seed, block) == "".join(reference.stream(cfg, scenario, seed))


@st.composite
def code_runs(draw):
    """``(raws, thresholds, descending)``: a run of 1-2,000 raw draws, some
    repeated, and sorted thresholds in raw-draw space, some at a draw of the
    run (its highest among them), some anywhere and some past every draw."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2000))
    pool = [rnd.getrandbits(64) for _ in range(draw(st.integers(1, n)))]
    raws = [rnd.choice(pool) for _ in range(n)]
    top = max(raws)
    thresholds = [rnd.choice(raws) for _ in range(draw(st.integers(0, 8)))]
    thresholds += [top] * draw(st.integers(0, 1))
    thresholds += [rnd.getrandbits(64) for _ in range(draw(st.integers(0, 4)))]
    if top < 2**64 - 1:
        thresholds += [rnd.randint(top + 1, 2**64 - 1) for _ in range(draw(st.integers(0, 3)))]
    return raws, sorted(thresholds), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(case=code_runs())
# Long against its span of 3: bisection, past two repeated draws.
@example(case=([7 << 11, 5 << 11, 7 << 11] * 600, [6 << 11, 7 << 11, 2**63], False))
# The code changes only at the highest draw.
@example(case=([k << 11 for k in range(2000)], [1999 << 11], False))
# Short against its span of 12: every code computed.
@example(case=(list(range(0, 30 << 11, 1 << 11)), [k << 11 for k in range(1, 13)], True))
def test_run_codes_are_the_codes_of_each_draw(case):
    """``_run_codes`` on a monotone step function of the draw gives each
    draw's own code, and computes no more codes than the run has draws,
    whichever side of ``_BISECT_TICKS_PER_CODE`` times its span the run is."""
    raws, thresholds, descending = case
    steps = list(map(uniform_of, thresholds))  # where the code steps, in noise space
    sign, base = (-1, len(steps)) if descending else (1, 0)
    computed = []

    def code(noise):
        computed.append(noise)
        return base + sign * bisect_right(steps, noise)

    expected = list(map(code, map(uniform_of, raws)))
    first, final = (code(uniform_of(raw)) for raw in (0, 2**64 - 1))
    computed.clear()
    assert pipeline._run_codes(code, uniform_of, raws, first, final) == expected
    assert len(computed) <= len(raws)


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(max_duration=100.0), offsets=st.lists(st.floats(0.0, 1.0)))
def test_scenario_lookup_is_zero_order_hold(scenario, offsets):
    """``at`` is the hold at every time. ``runs`` splits the same times,
    sorted, with repeats and times on the steps, into consecutive runs,
    each on the last step at or before every time in it, and two
    adjacent runs never on one step."""
    times = list(scenario.step_times)
    between = [(a + b) / 2 for a, b in zip(times, times[1:])]
    past = [scenario.end_time + 1.0, scenario.end_time * 2 + 1.0]
    spread = [scenario.start_time + f * (scenario.end_time - scenario.start_time + 1.0)
              for f in offsets]
    for time in times + between + past + spread:
        assert scenario.at(time) == reference.linear_hold(scenario, time)
    with pytest.raises(ValueError):
        scenario.at(scenario.start_time - 1e-3)
    ordered = sorted(times + between + past + spread + times + spread[::2])
    runs = list(scenario.runs(ordered))
    bounds = [start for _, start, _ in runs] + [runs[-1][2]]
    assert bounds[0] == 0 and bounds[-1] == len(ordered)
    assert all(start < end for start, end in zip(bounds, bounds[1:]))
    assert [end for _, _, end in runs] == bounds[1:]
    steps = [step for step, _, _ in runs]
    assert all(a != b for a, b in zip(steps, steps[1:]))
    for step, start, end in runs:
        held = scenario.steps[step]
        for time in ordered[start:end]:
            assert (held.force, held.quadrants) == reference.linear_hold(scenario, time)
            assert held is [s for s in scenario.steps if s.time <= time][-1]
    assert list(scenario.runs([])) == []


#: Forces the filter must average exactly: signed zeros, the smallest
#: subnormal and others, values spread over every exponent up to 3 N.
filter_force = (st.sampled_from((0.0, -0.0, 5e-324, 1.5))
                | st.integers(1, 2**52 - 1).map(lambda k: k * 5e-324)
                | st.floats(0.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(st.tuples(filter_force, st.integers(1, 40)), min_size=1, max_size=40),
       window=st.integers(1, 8) | st.integers(1, 2000), chunk=st.integers(1, 50))
def test_running_sum_filter_matches_moving_average(runs, window, chunk):
    forces = [force for force, repeats in runs for _ in range(repeats)]
    state, reference = StreamState(window), deque(maxlen=window)
    for start in range(0, len(forces), chunk):  # stepped in chunks, as blocks are
        part = forces[start:start + chunk]
        texts = state.step([(force, repr(force), exact_units(force)) for force in part])
        for force, text in zip(part, texts):
            reference.append(force)
            assert text == repr(moving_average(reference))


coefficient = st.sampled_from((0.0, -0.0)) | st.floats(-3.0, 3.0)


@st.composite
def estimator_cases(draw):
    adc = AdcConfig(bits=draw(st.integers(1, 12)), full_scale=draw(st.floats(1.0, 10.0)))
    cfg = default_config(adc=adc, signal_units=draw(st.sampled_from(("volts", "counts"))))
    top = channel_signal(cfg, adc.max_code)
    scale = draw(st.sampled_from((1.0, 1.0 / top)))
    # random coefficients: non-monotone models, and ones that go negative
    coefficients = [draw(coefficient) * scale ** k for k in range(draw(st.integers(2, 6)))]
    est_cfg = EstimatorConfig(
        model=PolynomialModel(tuple(coefficients), cfg.signal_units),
        element_thresholds=tuple(draw(st.floats(top / 100, top)) for _ in range(4)),
        sensing_range=draw(st.floats(0.1, 3.0)),
        resolution=0.1,
        filter_window=draw(st.integers(1, 8)),
    )
    code = st.sampled_from((0, adc.max_code)) | st.integers(0, adc.max_code)
    palette = draw(st.lists(code, min_size=1, max_size=6))
    ticks = draw(st.lists(st.tuples(*[st.sampled_from(palette)] * 5), min_size=1, max_size=60))
    as_float = draw(st.booleans())
    samples = [
        SampleLine(k / 9.6, tuple(float(c) if as_float else c for c in codes))
        for k, codes in enumerate(ticks)
    ]
    return cfg, est_cfg, samples


@settings(max_examples=150, deadline=None)
@given(case=estimator_cases(), block=st.integers(1, 8))
def test_code_tables_match_per_tick_reference(case, block):
    cfg, est_cfg, samples = case
    lines, out = [format_sample_line(s) + "\n" for s in samples], io.StringIO()
    with mock.patch.object(pipeline, "BLOCK_TICKS", block):  # tables emptied every few codes
        pipeline.estimate_lines(cfg, est_cfg, lines, out)
    assert out.getvalue() == "".join(reference.frames(cfg, est_cfg, lines))


@st.composite
def threshold_cases(draw):
    """A config of 1-16 ADC bits, in volts or counts, and its estimator
    config with four element thresholds on, between and just around code
    signals, and above the top code's."""
    adc = AdcConfig(bits=draw(st.integers(1, 16)), full_scale=draw(st.floats(0.1, 20.0)))
    cfg = default_config(adc=adc, signal_units=draw(st.sampled_from(("volts", "counts"))))
    top = channel_signal(cfg, adc.max_code)
    thresholds = []
    for _ in range(4):
        code = draw(st.integers(1, adc.max_code))
        low, high = channel_signal(cfg, code - 1), channel_signal(cfg, code)
        thresholds.append(draw(st.sampled_from((
            high, (low + high) / 2, math.nextafter(high, 0.0), math.nextafter(high, math.inf),
            math.nextafter(top, math.inf), 2 * top))))
    est_cfg = EstimatorConfig(model=PolynomialModel((0.0, 1.0), cfg.signal_units),
                              element_thresholds=tuple(thresholds),
                              sensing_range=1.0, resolution=0.1)
    return cfg, est_cfg


@settings(max_examples=200, deadline=None)
@given(case=threshold_cases())
def test_threshold_codes_give_the_element_rule_at_every_code(case):
    cfg, est_cfg = case
    first_on = pipeline._Replay(cfg, est_cfg, io.StringIO()).first_on
    codes = range(cfg.adc.max_code + 1)
    signals = [channel_signal(cfg, code) for code in codes]
    for on, threshold in zip(first_on, est_cfg.element_thresholds, strict=True):
        assert 0 <= on <= cfg.adc.max_code + 1
        assert [code >= on for code in codes] == [signal >= threshold for signal in signals]


@pytest.mark.parametrize("units", ["volts", "counts"])
def test_threshold_codes_at_53_bits(units, monkeypatch):
    cfg = default_config(adc=AdcConfig(bits=53), signal_units=units)
    max_code = cfg.adc.max_code
    top = channel_signal(cfg, max_code)
    thresholds = (1e-300, top / 3, channel_signal(cfg, 2**40 + 1), top, math.nextafter(top, math.inf))
    calls = []
    monkeypatch.setattr(pipeline, "channel_signal",
                        lambda cfg, code: calls.append(code) or channel_signal(cfg, code))
    for threshold in thresholds:
        est_cfg = EstimatorConfig(model=PolynomialModel((0.0, 1.0), units),
                                  element_thresholds=(threshold,) * 4,
                                  sensing_range=1.0, resolution=0.1)
        calls.clear()
        on = pipeline._Replay(cfg, est_cfg, io.StringIO()).first_on[0]
        assert len(calls) <= 4 * 54  # a bisection of 2**53 codes per element
        for code in range(max(on - 3, 0), min(on + 3, max_code + 1)):
            assert (code >= on) == (channel_signal(cfg, code) >= threshold)
        assert (on == max_code + 1) == (top < threshold)


def outcome(write):
    """(text written, error type, message) of ``write(out)``."""
    out = io.StringIO()
    try:
        write(out)
    except Exception as exc:  # compared, not swallowed
        return out.getvalue(), type(exc), str(exc)
    return out.getvalue(), None, None


def respell(line: str, form: str) -> str:
    """A line with the same values: as written, float-form numbers, padded fields."""
    fields = line.split(",")
    if form == "float":
        fields = [f if "." in f or "e" in f or not f[-1].isdigit() else f + ".0"
                  for f in fields]
    elif form == "padded":
        fields = [f" {f}\t" for f in fields]
    return ",".join(fields)


spelling = st.sampled_from(("as_written", "as_written", "float", "padded"))
interjection = st.sampled_from((None, None, None, None, "", "# note", "bad"))


def text_lines(data, lines, bad_lines):
    """``lines`` respelled, with blank, comment and bad lines drawn in between."""
    result = []
    for line in lines:
        extra = data.draw(interjection)
        if extra == "bad":
            extra = data.draw(st.sampled_from(bad_lines))
        if extra is not None:
            result.append(extra + "\n")
        result.append(respell(line, data.draw(spelling)) + "\n")
    return result


BAD_SAMPLE_LINES = ("0.0,0,0,0,0,0", "x", "1e9,0,0,0,0,4096", "1e9,0,0,0,0,0.5",
                    "-1,0,0,0,0,0", "1e9,nan,0,0,0,0", "1e9,0,0,0,0", "1_0,0,0,0,0,0")


@settings(max_examples=100, deadline=None)
@given(case=estimator_cases(), data=st.data(), block=st.integers(1, 8))
def test_block_replay_matches_per_frame_reference(case, data, block):
    cfg, est_cfg, samples = case
    lines = text_lines(data, [format_sample_line(s) for s in samples], BAD_SAMPLE_LINES)

    def blocks(out):
        with mock.patch.object(pipeline, "BLOCK_TICKS", block):
            pipeline.estimate_lines(cfg, est_cfg, lines, out)

    assert outcome(blocks) == outcome(lambda out: reference_replay(cfg, est_cfg, lines, out))


BAD_FRAME_LINES = ("0.5,0.1,0.1,0,0,0,none", "0.5,x,0.1,0,0,0,0,none",
                   "0.5,0.1,0.1,0,2,0,0,point", "0.5,0.1,0.1,0,0,0,0,blob",
                   "0.5,nan,0.1,0,0,0,0,none", "inf,0.1,0.1,0,0,0,0,none",
                   "-1.0,0.1,0.1,0,0,0,0,none", "1_0,0.1,0.1,0,0,0,0,none")

def checked_frames(lines, truth: LoadScenario = None):
    """Each frame line of ``lines`` as ``format_frame`` spells it, in turn,
    blank and ``#`` lines skipped; ``parse_frame``'s error, or with ``truth``
    a frame before its start, raised as ``report`` raises it."""
    for number, line in enumerate(lines, start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            frame = parse_frame(line, number)
            if truth is not None:
                try:
                    truth.at(frame.time)
                except ValueError as exc:  # a frame before the scenario start
                    raise ParseError(str(exc), number) from exc
            yield format_frame(frame) + "\n"


force = st.sampled_from((0.0, -0.0)) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def summary_cases(draw):
    """Frames, a sensing range and maybe a scenario, with frames in time order or not.

    Some raw forces equal the sensing range, and some times the step
    times. Some scenarios start after the first frames.
    """
    sensing_range = draw(st.floats(0.1, 3.0))
    truth = draw(st.none() | scenarios(max_duration=100.0))
    time = st.floats(0.0, 200.0)
    if truth is not None:
        shift = draw(st.sampled_from((0.0, 0.0, 2.0)))
        truth = LoadScenario(tuple(replace(step, time=step.time + shift) for step in truth.steps))
        time = (st.floats(0.0, truth.end_time + 5.0)
                | st.sampled_from([t for t in truth.step_times if t >= 0.0] or [0.0]))
    frames = draw(st.lists(st.builds(
        EstimateFrame, time, st.just(sensing_range) | force, force,
        st.tuples(*[st.booleans()] * 4), st.sampled_from(PATTERNS)), max_size=40))
    if draw(st.booleans()):
        frames.sort(key=lambda frame: frame.time)
    return frames, sensing_range, truth


@settings(max_examples=150, deadline=None)
@given(case=summary_cases(), data=st.data(), block=st.integers(1, 8))
def test_block_summary_matches_per_frame_reference(case, data, block):
    frames, sensing_range, truth = case
    lines = [format_frame(f) + "\n" for f in frames]
    if data.draw(st.booleans()):  # else every line canonical, so that whole blocks are too
        lines = text_lines(data, [format_frame(f) for f in frames], BAD_FRAME_LINES)

    def expected(out):
        out.write(reference.summary(checked_frames(lines, truth), sensing_range, truth))

    def blocks(out):
        with mock.patch.object(pipeline, "BLOCK_TICKS", block):
            out.write(pipeline.summarize_lines(lines, sensing_range, truth=truth))

    assert outcome(blocks) == outcome(expected)


@st.composite
def chain_cases(draw):
    """The default config at a preset gain, with 8-12 ADC bits, drawn rails,
    noise and filter window; a model; and a scenario of repeating loads,
    some held 5-30 s, so that runs are long and steps fall on ticks."""
    rail_low = draw(st.sampled_from((0.0, -1.0)) | st.floats(-1.0, 1.0))
    bridge = BridgeConfig(amplifier_gain=draw(st.sampled_from((22.0, 41.36))),
                          noise_fraction=draw(st.sampled_from((0.0, 0.01)) | st.floats(0.0, 0.5)),
                          rail_low=rail_low, rail_high=rail_low + draw(st.floats(1.5, 8.0)))
    cfg = default_config(bridge=bridge, adc=AdcConfig(bits=draw(st.integers(8, 12))),
                         filter_window=draw(st.integers(1, 16)))
    model = PolynomialModel(tuple(draw(st.lists(coefficient, min_size=2, max_size=4))))
    holds = st.integers(1, 6).map(lambda n: 5.0 * n) | st.floats(0.01, 1.0)
    return cfg, model, draw(repeating_scenarios(cfg, st.lists(holds, max_size=6)))


@settings(max_examples=40, deadline=None)
@given(case=chain_cases(), seed=st.integers(0, 2**32 - 1))
def test_cli_writes_the_reference_chain_end_to_end(case, seed):
    """``simulate``, ``estimate`` and ``report --truth --rmse``, run by
    ``cli.main`` on a config file, write the stream, the frames and the
    report of ``reference``, byte for byte."""
    cfg, model, scenario = case
    assume(scenario.end_time >= 0.0)  # a tick at least, so that report has an RMSE
    sensing_range, resolution = RANGE_TABLE[cfg.bridge.amplifier_gain]
    est_cfg = EstimatorConfig(model, element_signal_thresholds(cfg), sensing_range, resolution,
                              cfg.filter_window)
    keys = {"gain": cfg.bridge.amplifier_gain, "noise_fraction": cfg.bridge.noise_fraction,
            "rail_low": cfg.bridge.rail_low, "rail_high": cfg.bridge.rail_high,
            "adc_bits": cfg.adc.bits, "filter_window": cfg.filter_window}
    with tempfile.TemporaryDirectory() as work:
        config, model_path, truth, stream, frames = (
            os.path.join(work, name)
            for name in ("tactsim.cfg", "model.json", "truth.csv", "stream.csv", "frames.csv"))
        with open(config, "w") as handle:
            handle.writelines(f"{key} = {value!r}\n" for key, value in keys.items())
        save_model(model_path, model)
        save_scenario(truth, scenario)
        flags, report = ["--config", config], io.StringIO()
        with redirect_stdout(report):
            assert cli.main(["simulate", truth, "--seed", str(seed), "-o", stream, *flags]) == 0
            assert cli.main(["estimate", stream, "-m", model_path, "-o", frames, *flags]) == 0
            assert cli.main(["report", frames, "--truth", truth, "--rmse", *flags]) == 0
        stream_lines = list(reference.stream(cfg, scenario, seed))
        frame_lines = list(reference.frames(cfg, est_cfg, stream_lines))
        for path, lines in ((stream, stream_lines), (frames, frame_lines)):
            with open(path, "rb") as handle:
                assert handle.read() == "".join(lines).encode()
    assert report.getvalue() == reference.summary(frame_lines, sensing_range, scenario) + "\n"


def reference_kfold_split(n: int, k: int, seed) -> np.ndarray:
    """Fold ids by the chunk loop ``kfold_split`` replaced: the shuffled
    indices taken in order, ``n // k`` to a fold and one more to each of
    the first ``n % k`` folds."""
    order = np.random.default_rng(seed).permutation(n)
    folds = np.empty(n, dtype=int)
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        folds[order[start:start + size]] = fold
        start += size
    return folds


def test_kfold_split_matches_chunk_loop_reference():
    for n in range(2, 121):
        for k in range(2, min(n, 10) + 1):
            for seed in (0, 2**40 + 3, [7, 2]):
                folds = kfold_split(range(n), k=k, seed=seed)
                expected = reference_kfold_split(n, k, seed)
                assert folds.dtype == expected.dtype
                assert folds.tolist() == expected.tolist(), (n, k, seed)


def reference_cross_validate(dataset, orders, k, repeats, seed, strict_paper) -> FitReport:
    """Cross-validation fold by fold: one ``fit_polynomial`` and two
    ``evaluate_model`` calls per fold and order."""
    signals, forces = dataset.signals, dataset.forces
    train_sums = {order: 0.0 for order in orders}
    test_sums = {order: 0.0 for order in orders}
    test_folds = (0,) if strict_paper else range(k)
    for repeat in range(repeats):
        folds = kfold_split(dataset, k=k, seed=[seed, repeat])
        for fold in test_folds:
            test_mask = folds == fold
            v_train, f_train = signals[~test_mask], forces[~test_mask]
            v_test, f_test = signals[test_mask], forces[test_mask]
            for order in orders:
                try:
                    model = fit_polynomial(v_train, f_train, order)
                except FitError as exc:
                    raise type(exc)(f"repeat {repeat}, test fold {fold}: {exc}") from exc
                with np.errstate(over="ignore", invalid="ignore"):
                    train_sums[order] += rmse(evaluate_model(model, v_train).tolist(),
                                              f_train.tolist())
                    test_sums[order] += rmse(evaluate_model(model, v_test).tolist(),
                                             f_test.tolist())
    evaluations = repeats * len(test_folds)
    test_means = tuple(test_sums[o] / evaluations for o in orders)
    return FitReport(orders=orders, train_rmse=tuple(train_sums[o] / evaluations for o in orders),
                     test_rmse=test_means, selected_order=orders[int(np.argmin(test_means))],
                     repeats=repeats, k=k, seed=seed, strict_paper=strict_paper)


@st.composite
def cv_cases(draw):
    """A dataset of k to 40 rows, and cross-validation arguments.

    Signals repeat, or are all one value, and some are scaled so that
    their powers overflow from order 2, 4 or 6. Some forces are near the
    largest float, so that coefficients or RMSEs overflow.
    """
    k = draw(st.integers(2, 7))
    n = draw(st.integers(k, 40))
    scale = (1.0, 1e60, 1e100, 1e154)[max(draw(st.integers(-4, 3)), 0)]
    # n distinct values, a third as many each used about three times, or one value.
    values = (1, max(n // 3, 1), n)[min(draw(st.integers(0, 5)), 2)]
    hundredths = st.lists(st.integers(-500, 500), min_size=values, max_size=values, unique=True)
    distinct = [i / 100 for i in draw(hundredths)]
    signals = [distinct[i % values] for i in range(n)]
    force_value = st.floats(-2.0, 2.0)
    if draw(st.integers(0, 3)) == 0:
        force_value = st.sampled_from((1.7e308, -1.7e308, 1e308, 0.0))
    forces = draw(st.lists(force_value, min_size=n, max_size=n))
    dataset = CalibrationDataset(scale * np.array(signals), np.array(forces))
    arguments = dict(
        orders=tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True))),
        k=k, repeats=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)),
        strict_paper=draw(st.booleans()))
    return dataset, arguments


def call_outcome(function, *args, **kwargs):
    """``repr`` of what ``function`` returns, or its error's type and message."""
    try:
        return repr(function(*args, **kwargs))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cv_cases())
def test_cross_validate_matches_per_fold_reference(case):
    dataset, arguments = case
    expected = call_outcome(reference_cross_validate, dataset, **arguments)
    assert call_outcome(cross_validate, dataset, **arguments) == expected


@st.composite
def balanced_bridges(draw):
    r1, r2, rx = (draw(st.floats(1e3, 1e6)) for _ in range(3))
    return BridgeConfig(supply_voltage=draw(st.floats(1.0, 12.0)),
                        r1=r1, r2=r2, r3=r1 * rx / r2, rx_rest=rx)


# Rises in units of rx, at least 1e-6 rx apart, so that each step moves
# the divider node by far more than one rounding error.
rise = st.just(0.0) | st.floats(1e-6, 10.0)


@settings(max_examples=200, deadline=None)
@given(cfg=balanced_bridges(), low=rise, step=st.floats(1e-6, 10.0))
def test_bridge_null_at_rest_and_strictly_increasing(cfg, low, step):
    assert abs(bridge_output(cfg, 0.0)) < 1e-12 * cfg.supply_voltage
    rises = sorted({0.0, low, low + step})
    outputs = [bridge_output(cfg, r * cfg.rx_rest) for r in rises]
    assert all(a < b for a, b in zip(outputs, outputs[1:]))


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(1, 16), full_scale=st.floats(0.1, 20.0), fraction=st.floats(-1.0, 2.0))
def test_quantization_within_half_lsb(bits, full_scale, fraction):
    adc = AdcConfig(bits=bits, full_scale=full_scale)
    v = fraction * full_scale
    clamped = min(max(v, 0.0), full_scale)
    error = dequantize(adc, adc_sample(adc, v)) - clamped
    # A voltage on a code boundary is exactly half an LSB from the code's
    # centre, and the centre itself is rounded to a float: allow that.
    assert abs(error) <= full_scale / (2 * adc.max_code) + 2 * math.ulp(full_scale)


def numpy_clip(v, low, high):
    return np.minimum(np.maximum(v, low), high)


def signed(values):
    """The given floats, their negations and random floats in [-10, 10]."""
    edges = {repr(x): x for v in values for x in (v, -v)}
    return st.sampled_from(list(edges.values())) | st.floats(-10.0, 10.0)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), gain=st.sampled_from((1.0, 41.36)) | st.floats(0.5, 200.0),
       noise_fraction=st.sampled_from((0.0, 0.01)) | st.floats(0.0, 0.5),
       rail_low=st.sampled_from((0.0, -0.0)) | st.floats(-1.0, 1.0),
       width=st.floats(0.5, 8.0))
def test_amplify_matches_numpy_clip(data, gain, noise_fraction, rail_low, width):
    cfg = BridgeConfig(amplifier_gain=gain, noise_fraction=noise_fraction,
                       rail_low=rail_low, rail_high=rail_low + width)
    # With a gain of 1 and no noise, the rails themselves are hit exactly.
    v_in = data.draw(signed((0.0, rail_low, cfg.rail_high)))
    noise = data.draw(st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf))
                      | st.floats(-1.0, 1.0))
    v = gain * v_in * (1.0 + noise_fraction * noise)
    assert repr(amplify(cfg, v_in, noise)) == repr(float(numpy_clip(v, rail_low, cfg.rail_high)))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), bits=st.integers(1, 16), full_scale=st.floats(0.1, 20.0))
def test_adc_sample_matches_numpy_clip_and_floor(data, bits, full_scale):
    adc = AdcConfig(bits=bits, full_scale=full_scale)
    v = data.draw(signed((0.0, full_scale)))
    expected = np.floor(numpy_clip(v, 0.0, full_scale) * adc.max_code / full_scale + 0.5)
    assert repr(adc_sample(adc, v)) == repr(int(expected))


def numpy_scalar_rmse(a, b):
    """``rmse`` as it was computed on numpy scalars; None where ``fsum``
    raised, its running sum having passed the largest float."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            total = math.fsum((p - t) ** 2 for p, t in zip(a, b))
        except OverflowError:
            return None
    return math.sqrt(total / len(a))


#: Signed zeros, subnormals, and values whose squares (or their sum) overflow.
rmse_edges = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                              1.2e154, -1.2e154, 1e200, 1.7976931348623157e308))


@settings(max_examples=500, deadline=None)
@given(pairs=st.lists(st.tuples(rmse_edges | st.floats(), rmse_edges | st.floats()),
                      min_size=1, max_size=12))
def test_rmse_of_arrays_matches_lists(pairs):
    a, b = np.array(pairs).T
    expected = repr(rmse(a.tolist(), b.tolist()))
    assert repr(rmse(a, b)) == expected
    before = numpy_scalar_rmse(a, b)
    if before is None:
        with np.errstate(over="ignore", invalid="ignore"):
            nan = np.isnan(a - b).any()
        assert expected == ("nan" if nan else "inf")
    else:
        assert repr(before) == expected


def generator_rmse(a, b):
    """``rmse`` on Python floats by a generator of squared differences."""
    if len(a) != len(b):
        raise UsageError(f"rmse needs equal-length sequences, got {len(a)} and {len(b)}")
    if not a:
        raise UsageError("rmse of empty sequences is undefined")
    try:
        total = math.fsum((p - t) ** 2 for p, t in zip(a, b))
    except OverflowError:
        total = math.nan if any(math.isnan(p - t) for p, t in zip(a, b)) else math.inf
    return math.sqrt(total / len(a))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(rmse_edges | st.floats(), rmse_edges | st.floats()), max_size=12),
       extra=st.lists(rmse_edges, max_size=2), longer=st.sampled_from("ab"))
def test_rmse_is_the_fsum_of_squared_differences(pairs, extra, longer):
    a = [p for p, _ in pairs] + (extra if longer == "a" else [])
    b = [t for _, t in pairs] + (extra if longer == "b" else [])
    assert call_outcome(rmse, a, b) == call_outcome(generator_rmse, a, b)


def fsum_outcome(terms):
    """``math.fsum`` of ``terms``, or ``inf`` where it overflows."""
    try:
        return repr(math.fsum(terms))
    except OverflowError:
        return "inf"


#: Non-negative terms: signed zeros, subnormals, the largest floats (their sum overflows), inf.
sum_edges = st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e200,
                             1.7976931348623157e308, math.inf))


@settings(max_examples=500, deadline=None)
@given(pairs=st.lists(st.tuples(sum_edges | st.floats(min_value=0.0, allow_nan=False),
                                st.integers(0, 4)), max_size=12))
def test_counted_sum_matches_fsum_of_the_list(pairs):
    terms = [term for term, count in pairs for _ in range(count)]
    remaining = iter(pairs)
    assert repr(fsum_counted(remaining)) == fsum_outcome(terms)
    assert next(remaining, None) is None  # read to the end, overflow or not


@settings(max_examples=300, deadline=None)
@given(unit=st.lists(coefficient, min_size=3, max_size=6), u0=st.floats(0.0, 1.0),
       v_max=st.just(50.0) | st.floats(1.0, 100.0))
def test_inverse_is_the_first_crossing(unit, u0, v_max):
    # The polynomial in u = v / v_max has the drawn coefficients, so its
    # values on [0, v_max] are bounded by ``scale``.
    model = PolynomialModel(tuple(a / v_max ** k for k, a in enumerate(unit)))
    scale = sum(abs(a) for a in unit)
    slope = sum(k * a * u0 ** (k - 1) for k, a in enumerate(unit) if k)
    assume(scale > 1e-200)  # values of a smaller model are subnormal floats
    assume(abs(slope) > 1e-6 * scale)  # the model crosses the force, not touches it
    force = evaluate_model(model, u0 * v_max)
    tol = 1e-9 * scale
    v = invert_model(model, force, v_max)
    assert 0.0 <= v <= v_max
    assert abs(evaluate_model(model, v) - force) <= tol
    below = evaluate_model(model, np.linspace(0.0, v, 256, endpoint=False)) - force
    assert not ((below > tol).any() and (below < -tol).any())


def reference_invert_model(model, force, v_max=50.0):
    """``invert_model`` with its Newton slope from ``np.polyder`` and
    ``np.polyval``, as it was before every model value went through one
    Horner evaluator."""
    if model.order == 1:
        a0, a1 = model.coefficients
        if a1 == 0:
            raise ValueError("cannot invert a flat linear model")
        return (force - a0) / a1
    if evaluate_model(model, 0.0) == force:
        return 0.0
    a0, *rest = model.coefficients
    terms = [a0 - force, *rest]
    sizes = [abs(c) * v_max ** k for k, c in enumerate(terms)]
    while len(terms) > 1 and sizes[len(terms) - 1] <= np.finfo(float).eps * sum(sizes):
        terms.pop()
    poly = np.array(terms[::-1])
    roots = np.roots(poly)
    slack = 1e-9 * v_max
    reached = [v for v in roots[np.isreal(roots)].real.tolist() if -slack <= v <= v_max + slack]
    if not reached:
        raise ValueError(
            f"force {force} N is not reached by the model on signal range [0, {v_max}]"
        )
    v, slope = min(reached), np.polyder(poly)
    for _ in range(3):
        d = float(np.polyval(slope, v))
        if d == 0:
            break
        v -= (evaluate_model(model, v) - force) / d
    return min(max(v, 0.0), v_max)


@settings(max_examples=300, deadline=None)
@given(coefficients=st.lists(coefficient, min_size=3, max_size=6), u0=st.floats(0.0, 1.0),
       v_max=st.just(50.0) | st.floats(1.0, 100.0))
def test_inverse_matches_the_polyval_newton_polish(coefficients, u0, v_max):
    model = PolynomialModel(tuple(coefficients))
    force = evaluate_model(model, u0 * v_max)
    with np.errstate(all="ignore"):  # the reference's polyval may overflow
        expected = call_outcome(reference_invert_model, model, force, v_max)
    assert call_outcome(invert_model, model, force, v_max) == expected


finite = st.floats(allow_nan=False, allow_infinity=False)
channel = st.integers(0, 4095) | st.floats(-1e6, 1e6)


@settings(max_examples=200, deadline=None)
@given(time=st.floats(0.0, 1e9), channels=st.tuples(*[channel] * 5))
def test_sample_line_round_trip(time, channels):
    sample = SampleLine(time, channels)
    line = format_sample_line(sample)
    parsed = parse_sample_line(line)
    assert parsed == sample
    assert format_sample_line(parsed) == line


@settings(max_examples=200, deadline=None)
@given(time=st.floats(0.0, 1e9), raw=finite, filtered=finite,
       states=st.tuples(*[st.booleans()] * 4), pattern=st.sampled_from(PATTERNS))
def test_frame_line_round_trip(time, raw, filtered, states, pattern):
    frame = EstimateFrame(time, raw, filtered, states, pattern)
    assert repr(parse_frame(format_frame(frame))) == repr(frame)


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(max_duration=100.0))
def test_scenario_csv_round_trip(scenario, tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.csv"
    save_scenario(path, scenario)
    assert load_scenario(path) == scenario


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=20),
       weighted=st.booleans())
def test_dataset_csv_round_trip(rows, weighted, tmp_path_factory):
    signals, forces, weights = (np.array(column) for column in zip(*rows))
    dataset = CalibrationDataset(signals, forces, weights_gw=weights if weighted else None)
    path = tmp_path_factory.mktemp("dataset") / "dataset.csv"
    save_dataset(path, dataset)
    loaded = load_dataset(path)
    assert loaded.signals.tolist() == dataset.signals.tolist()
    assert loaded.forces.tolist() == dataset.forces.tolist()
    if weighted:
        assert loaded.weights_gw.tolist() == dataset.weights_gw.tolist()
    else:
        assert loaded.weights_gw is None


@settings(max_examples=100, deadline=None)
@given(coefficients=st.lists(finite, min_size=2, max_size=7), units=st.text())
def test_model_json_round_trip(coefficients, units, tmp_path_factory):
    model = PolynomialModel(tuple(coefficients), units)
    directory = tmp_path_factory.mktemp("model")
    path, again = directory / "model.json", directory / "again.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded == model
    assert [repr(c) for c in loaded.coefficients] == [repr(c) for c in model.coefficients]
    save_model(again, loaded)
    assert again.read_bytes() == path.read_bytes()
