"""Property tests: the fast paths against per-tick references.

The simulator reference is written tick by tick from the single-stage
functions, with one scalar noise draw per channel per tick and a linear
zero-order-hold lookup. The block simulator must produce exactly the
same stream for any valid configuration, scenario and block size.

The estimator reference converts every code of every tick to a signal
and runs ``process_frame`` on it. The code-indexed ``estimate_lines``
must write the same frames, down to the sign of a zero.

The block text paths of the three replay commands must agree with the
per-item paths for any block size and any mix of spellings, comments
and bad lines. ``simulate_blocks`` with ``format_sample_block`` writes
the lines of ``simulate_samples``. ``estimate_lines`` writes the frames
of ``estimate_frames`` over ``read_samples``, and fails on the same line
with the same message after writing the same frames. ``summarize_lines``
gives the summary that ``reference_summary`` counts frame by frame from
the parsed lines, or the same error.

The stage properties check the balanced null, the monotone bridge and
the half-LSB quantization bound on random configurations, and that the
scalar amplifier and ADC stages clip and round as numpy's
``minimum``/``maximum``/``floor`` do, down to signed zeros and NaN.
``rmse`` must give the same float on an array, on its ``tolist()`` and
as the numpy-scalar arithmetic it replaced, overflow included, and
``fsum_counted`` the ``math.fsum`` of its non-negative terms written
out, read to the end, with ``inf`` where the sum overflows. Model
inversion must find the first crossing of the force on random models of
orders 2-5, and every file format must read back what it wrote.
"""

import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tactsim import (
    AdcConfig,
    BridgeConfig,
    CalibrationDataset,
    ElementModel,
    EstimateFrame,
    EstimatorConfig,
    FabricModel,
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
    bridge_output,
    default_config,
    dequantize,
    element_resistance,
    evaluate_model,
    fabric_delta_r,
    format_frame,
    format_sample_line,
    invert_model,
    load_dataset,
    load_model,
    load_scenario,
    parse_frame,
    parse_sample_line,
    process_frame,
    read_samples,
    rmse,
    save_dataset,
    save_model,
    save_scenario,
)
from tactsim import pipeline
from tactsim.config import channel_signal
from tactsim.estimator import PATTERNS
from tactsim.streams import format_sample_block
from tactsim.units import fsum_counted

QUADRANTS = (1, 2, 3, 4)


def linear_hold(scenario: LoadScenario, time: float):
    """Zero-order hold by definition: the last step at or before ``time``."""
    current = scenario.steps[0]
    for step in scenario.steps:
        if step.time <= time:
            current = step
    return current.force, current.quadrants


def reference_stream(cfg: ToolkitConfig, scenario: LoadScenario, seed: int):
    """(time, codes) per tick, one scalar chain conversion per channel."""
    rng = np.random.default_rng(seed)
    rate = cfg.adc.sample_rate
    ticks = int(math.floor(scenario.end_time * rate + 1e-9)) + 1
    stream = []
    for k in range(ticks):
        t = k / rate
        force, quadrants = linear_hold(scenario, t)
        channels = [(cfg.bridge, fabric_delta_r(cfg.fabric, force))]
        for quadrant, element in zip(QUADRANTS, cfg.elements):
            rest = element.rest_resistance
            pressed = force if quadrant in quadrants else 0.0
            bridge = replace(cfg.bridge, r1=rest, r2=rest, r3=rest, rx_rest=rest)
            channels.append((bridge, element_resistance(element, pressed) - rest))
        codes = tuple(
            adc_sample(cfg.adc, amplify(bridge, bridge_output(bridge, delta),
                                        rng.uniform(-1.0, 1.0)))
            for bridge, delta in channels
        )
        stream.append((t, codes))
    return stream


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
        text = "".join(format_sample_block(times, codes)
                       for times, codes in pipeline.simulate_blocks(cfg, scenario, seed=seed))
    assert [(s.time, s.channels) for s in stream] == reference_stream(cfg, scenario, seed)
    assert text == "".join(format_sample_line(sample) + "\n" for sample in stream)
    for sample in stream:
        assert type(sample.time) is float
        assert all(type(code) is int for code in sample.channels)


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(max_duration=100.0), offsets=st.lists(st.floats(0.0, 1.0)))
def test_scenario_lookup_is_zero_order_hold(scenario, offsets):
    times = list(scenario.step_times)
    between = [(a + b) / 2 for a, b in zip(times, times[1:])]
    past = [scenario.end_time + 1.0, scenario.end_time * 2 + 1.0]
    spread = [scenario.start_time + f * (scenario.end_time - scenario.start_time + 1.0)
              for f in offsets]
    for time in times + between + past + spread:
        assert scenario.at(time) == linear_hold(scenario, time)
    with pytest.raises(ValueError):
        scenario.at(scenario.start_time - 1e-3)


def reference_frames(cfg: ToolkitConfig, est_cfg: EstimatorConfig, samples):
    """Frames from one signal conversion and ``process_frame`` per tick."""
    state = StreamState(est_cfg.filter_window)
    return [
        process_frame(est_cfg, state, tuple(channel_signal(cfg, int(c)) for c in s.channels),
                      s.time)
        for s in samples
    ]


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
@given(case=estimator_cases())
def test_code_tables_match_per_tick_reference(case):
    cfg, est_cfg, samples = case
    out = io.StringIO()
    pipeline.estimate_lines(cfg, est_cfg, [format_sample_line(s) + "\n" for s in samples], out)
    expected = reference_frames(cfg, est_cfg, samples)
    assert out.getvalue() == "".join(format_frame(f) + "\n" for f in expected)


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
                    "-1,0,0,0,0,0", "1e9,nan,0,0,0,0", "1e9,0,0,0,0")


@settings(max_examples=100, deadline=None)
@given(case=estimator_cases(), data=st.data(), block=st.integers(1, 8))
def test_block_replay_matches_per_frame_reference(case, data, block):
    cfg, est_cfg, samples = case
    lines = text_lines(data, [format_sample_line(s) for s in samples], BAD_SAMPLE_LINES)

    def reference(out):
        for frame in pipeline.estimate_frames(cfg, est_cfg, read_samples(lines)):
            out.write(format_frame(frame) + "\n")

    def blocks(out):
        with mock.patch.object(pipeline, "BLOCK_TICKS", block):
            pipeline.estimate_lines(cfg, est_cfg, lines, out)

    assert outcome(blocks) == outcome(reference)


BAD_FRAME_LINES = ("0.5,0.1,0.1,0,0,0,none", "0.5,x,0.1,0,0,0,0,none",
                   "0.5,0.1,0.1,0,2,0,0,point", "0.5,0.1,0.1,0,0,0,0,blob",
                   "0.5,nan,0.1,0,0,0,0,none", "inf,0.1,0.1,0,0,0,0,none",
                   "-1.0,0.1,0.1,0,0,0,0,none")

def reference_summary(frames, sensing_range: float, truth: LoadScenario = None) -> str:
    """Summary text counted frame by frame, one scenario lookup per frame.

    ``frames`` holds ``(line number, frame)`` pairs; the number names a
    frame before the scenario start.
    """
    count = saturated = 0
    t_first = t_last = None
    on_counts = [0, 0, 0, 0]
    pattern_counts = dict.fromkeys(PATTERNS, 0)
    estimates, true_forces = [], []
    for number, frame in frames:
        if count == 0:
            t_first = frame.time
        t_last = frame.time
        count += 1
        if frame.raw_force >= sensing_range:
            saturated += 1
        for index, on in enumerate(frame.element_state):
            on_counts[index] += bool(on)
        pattern_counts[frame.pattern] += 1
        if truth is not None:
            estimates.append(frame.filtered_force)
            try:
                true_forces.append(truth.at(frame.time)[0])
            except ValueError as exc:
                raise ParseError(str(exc), number) from exc
    lines = [f"frames,{count}"]
    if count:
        lines.append(f"t_first,{t_first!r}")
        lines.append(f"t_last,{t_last!r}")
        lines.append(f"saturated_frames,{saturated}")
        for index, on in enumerate(on_counts, start=1):
            lines.append(f"duty_cycle_e{index},{on / count!r}")
        for label in PATTERNS:
            lines.append(f"pattern_{label},{pattern_counts[label]}")
    if truth is not None:
        if not count:
            raise UsageError("cannot compute RMSE of an empty frame stream")
        lines.append(f"rmse_n,{rmse(estimates, true_forces)!r}")
    return "\n".join(lines)


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

    def reference(out):
        parsed = ((number, parse_frame(line, number))
                  for number, line in enumerate(lines, start=1)
                  if line.strip() and not line.lstrip().startswith("#"))
        out.write(reference_summary(parsed, sensing_range, truth=truth))

    def blocks(out):
        with mock.patch.object(pipeline, "BLOCK_TICKS", block):
            out.write(pipeline.summarize_lines(lines, sensing_range, truth=truth))

    assert outcome(blocks) == outcome(reference)


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
