import hashlib
import io
import math
import random
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from tactsim import (
    AdcConfig,
    BridgeConfig,
    DataError,
    EstimatorConfig,
    LoadScenario,
    LoadStep,
    ParseError,
    StreamError,
    adc_sample,
    amplify,
    apply_load,
    bridge_output,
    capture_protocol_dataset,
    default_config,
    dequantize,
    estimate_frames,
    fabric_delta_r,
    gw_to_newtons,
    format_frame,
    load_scenario,
    make_estimator_config,
    moving_average,
    parse_frame,
    read_samples,
    save_dataset,
    simulate_samples,
    summarize_frames,
)
from tactsim.config import channel_signal
from tactsim import pipeline
from tactsim.pipeline import _load_table, estimate_lines, simulate_plan, tick_count
from tactsim.rng import uniform_of
from tactsim.streams import SampleLine

from conftest import accuracy_scenario, count_calls


def quiet_scenario(duration=1.0):
    return LoadScenario((
        LoadStep(0.0, 0.0, frozenset()),
        LoadStep(duration, 0.0, frozenset()),
    ))


def press_scenario(force, quadrant, duration=2.0):
    return LoadScenario((
        LoadStep(0.0, force, frozenset({quadrant})),
        LoadStep(duration, 0.0, frozenset()),
    ))


def simulated_times(duration: float) -> list:
    """Tick times of a quiet scenario simulated at the default 9.6 Hz."""
    blocks = simulate_plan(default_config(), quiet_scenario(duration), seed=0)[0]()
    return [t for times, _ in blocks for t in times]


class TestSampleClock:
    def test_one_second_yields_ten_ticks(self):
        times = simulated_times(1.0)
        assert tick_count(9.6, 1.0) == len(times) == 10
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.9375, abs=0)

    def test_ticks_are_exact_multiples(self):
        times = simulated_times(250.0)  # 2,401 ticks: three blocks
        assert times == [k / 9.6 for k in range(2401)]

    def test_exact_endpoint_included(self):
        # 2.5 s at 9.6 Hz lands exactly on tick 24
        assert tick_count(9.6, 2.5) == len(simulated_times(2.5)) == 25

    def test_span_ending_before_zero_has_no_ticks(self):
        assert tick_count(9.6, -1.0) == 0

    def test_ticks_stop_below_two_to_the_53(self):
        assert tick_count(1.0, 2.0**53 - 2) == 2**53 - 1
        with pytest.raises(DataError, match="range of 2\\*\\*53 ticks"):
            tick_count(1.0, 2.0**53 - 1)

    @pytest.mark.parametrize("rate, end", ((1e308, 1.0), (9.6, 1e308), (9.6, -1e308)))
    def test_tick_number_that_overflows(self, rate, end):
        with pytest.raises(DataError, match="out of the sample clock's range"):
            tick_count(rate, end)


class TestSimulate:
    def test_quiet_scenario_rests_at_zero(self):
        cfg = default_config()
        samples = list(simulate_samples(cfg, quiet_scenario(), seed=0))
        assert len(samples) == 10
        for sample in samples:
            assert sample.channels == (0,) * 5

    def test_press_codes_match_stage_composition(self):
        # independent oracle: compose the chain stages by hand, no noise
        from tactsim import BridgeConfig

        cfg = default_config(bridge=BridgeConfig(noise_fraction=0.0))
        force = gw_to_newtons(50)
        samples = list(simulate_samples(cfg, press_scenario(force, 2), seed=0))
        delta = fabric_delta_r(cfg.fabric, force)
        expected_force_code = adc_sample(
            cfg.adc, amplify(cfg.bridge, bridge_output(cfg.bridge, delta))
        )
        element_bridge = cfg.element_bridge(1)
        element = cfg.elements[1]
        expected_element_code = adc_sample(
            cfg.adc,
            amplify(
                element_bridge,
                bridge_output(
                    element_bridge, element.rest_resistance * element.active_signal_delta
                ),
            ),
        )
        pressed = [s for s in samples if s.time < 2.0]
        for sample in pressed:
            assert sample.channels[0] == expected_force_code
            assert sample.channels[2] == expected_element_code
            assert sample.channels[1] == 0
            assert sample.channels[3] == 0
            assert sample.channels[4] == 0

    def test_seeded_noise_is_reproducible(self):
        cfg = default_config()
        a = list(simulate_samples(cfg, press_scenario(0.49, 1), seed=5))
        b = list(simulate_samples(cfg, press_scenario(0.49, 1), seed=5))
        assert a == b

    def test_element_code_exceeds_threshold_level(self):
        cfg = default_config()
        from tactsim import element_signal_thresholds
        from tactsim.config import channel_signal

        thresholds = element_signal_thresholds(cfg)
        samples = list(simulate_samples(cfg, press_scenario(0.49, 2), seed=1))
        pressed = [s for s in samples if s.time < 2.0]
        for sample in pressed:
            assert channel_signal(cfg, int(sample.channels[2])) >= thresholds[1]


    def test_late_start_rejected_before_iteration(self):
        late = LoadScenario((
            LoadStep(0.5, 0.2, frozenset({1})),
            LoadStep(2.0, 0.0, frozenset()),
        ))
        with pytest.raises(DataError, match="t = 0"):
            simulate_samples(default_config(), late, seed=0)

    def test_long_scenario_streams_in_one_block(self):
        # about 10**6 ticks: the first samples must come without
        # materializing the run, i.e. in the memory of one block
        import itertools
        import tracemalloc

        ticks = 10**6
        scenario = LoadScenario((
            LoadStep(0.0, 0.49, frozenset({1})),
            LoadStep((ticks - 1) / 9.6, 0.0, frozenset()),
        ))
        tracemalloc.start()
        try:
            first = list(itertools.islice(simulate_samples(default_config(), scenario), 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [s.time for s in first] == [0.0, 1 / 9.6, 2 / 9.6]
        assert peak < 2_000_000

    @pytest.mark.parametrize("quadrants", ({1, 2, 3, 4}, {1, 3}, {4}, set()))
    def test_step_table_matches_apply_load_at_the_boundaries(self, quadrants):
        # Forces exactly on each piecewise edge, which continuous draws
        # almost never hit; hex spellings also tell -0.0 from 0.0.
        cfg = default_config()
        forces = [-0.0, 0.0]
        if quadrants:  # a non-zero force needs a quadrant
            forces.append(cfg.fabric.full_scale_force)
            for element in cfg.elements:
                forces += [element.trigger_threshold, element.saturation_force]
        scenario = LoadScenario(tuple(LoadStep(float(k), force, frozenset(quadrants))
                                      for k, force in enumerate(forces)))
        deltas, load_of_step = _load_table(cfg, scenario)
        rows = [deltas[row] for row in load_of_step]  # each step's row, through its index
        assert len(rows) == len(scenario.steps)
        assert len(deltas) == len({force.hex() for force in forces})  # one row per load
        assert load_of_step[0] != load_of_step[1]  # -0.0 and 0.0 each have their own
        for step, row in zip(scenario.steps, rows):
            fabric, elements = apply_load(scenario, cfg.fabric, cfg.elements, step.time)
            expected = [fabric, *(r - e.rest_resistance for r, e in zip(elements, cfg.elements))]
            assert [x.hex() for x in row] == [x.hex() for x in expected], step

    def test_noise_range_is_the_lowest_and_highest_draw(self):
        # A channel whose codes at these two noise values agree takes no draw.
        lowest, highest = uniform_of(0), uniform_of(2**64 - 1)
        assert [x.hex() for x in pipeline._NOISE_RANGE] == [lowest.hex(), highest.hex()]
        assert (lowest, highest) == (-1.0, 1.0 - 2.0**-52)

    def test_constant_channels_take_no_draw(self):
        # At rest every code is 0 whatever the draw; a press moves the fabric's code.
        cfg = default_config()
        with mock.patch.object(pipeline, "stage_code", wraps=pipeline.stage_code) as code:
            quiet = list(simulate_samples(cfg, quiet_scenario(3.0), seed=2))
            assert code.call_count == 0
            pressed = list(simulate_samples(cfg, press_scenario(0.3, 1, 3.0), seed=2))
        assert {s.channels for s in quiet} == {(0,) * 5}
        assert 0 < code.call_count <= len(pressed) * 5

    def test_long_holds_compute_few_codes(self):
        # A 10-minute hold is one run per block: its draws are sorted and the
        # code computed only where bisection looks for a change.
        from tactsim import rng

        cfg = default_config()
        with mock.patch.object(pipeline, "stage_code", wraps=pipeline.stage_code) as code, \
                mock.patch.object(rng, "output", wraps=rng.output) as draws:
            samples = list(simulate_samples(cfg, press_scenario(0.3, 1, 600.0), seed=2))
        assert len(samples) == 5761
        assert len({s.channels for s in samples}) > 1  # the press moves codes
        assert 0 < code.call_count < draws.call_count / 10

    def test_scenario_steps_cost_a_small_constant(self, tmp_path):
        # Traced bytes per step, from N and 4N steps of seven repeating
        # loads. A loaded step keeps its slotted LoadStep, its time and
        # two tuple slots: 96 B; its force is one of seven shared floats
        # (120 B with a float per step). simulate_plan's set-up then
        # peaks 8 B a step above that, for its row indices; it reads the
        # scenario's own step times. A frozenset, a __dict__ or a table
        # row per step breaks the bounds (one of each: 376 B kept, 296 B
        # of set-up peak).
        import tracemalloc

        quadrants = ("", "1", "1+2", "3+4", "1+2+3", "2", "1+2+3+4")

        def cost(steps):
            """Bytes ``load_scenario`` keeps, and simulate's set-up peak above them."""
            path = tmp_path / f"{steps}.csv"
            path.write_text("t,force_n,quadrants\n" + "".join(
                f"{0.36 * k!r},{0.25 * (k % 7)},{quadrants[k % 7]}\n" for k in range(steps)))
            tracemalloc.start()
            try:
                scenario = load_scenario(path)
                kept = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                next(simulate_plan(default_config(), scenario, seed=0)[0]())
                return kept, tracemalloc.get_traced_memory()[1] - kept
            finally:
                tracemalloc.stop()

        cost(300)  # the lazy imports and a first block, outside the counts
        steps = 2000
        (kept, setup), (kept_4n, setup_4n) = cost(steps), cost(4 * steps)
        assert (kept_4n - kept) / (3 * steps) < 136
        assert (setup_4n - setup) / (3 * steps) < 64

    def test_setup_converts_each_channel_input_once(self):
        # 0 N at rest, then 199 distinct forces up to 1.5 N, each on the next
        # of the 15 non-empty quadrant sets. The fabric takes one rise per
        # force; each element at most three (rest, triggered and near-open),
        # however many loads press it. The set-up runs the amplifier stage at
        # the lowest and the highest draw of each distinct rise of each
        # channel, not of each of the 5 channels of every distinct load
        # (2 x 5 x 200 calls).
        from tactsim import bridge

        cfg, steps = default_config(), 200
        pressed = [frozenset(q for q in (1, 2, 3, 4) if mask >> (q - 1) & 1)
                   for mask in range(1, 16)]
        scenario = LoadScenario((LoadStep(0.0, 0.0, frozenset()), *(
            LoadStep(0.5 * k, 1.5 * k / steps, pressed[k % 15]) for k in range(1, steps))))
        rises = [set() for _ in range(5)]
        for step in scenario.steps:
            fabric, elements = apply_load(scenario, cfg.fabric, cfg.elements, step.time)
            row = [fabric, *(r - e.rest_resistance for r, e in zip(elements, cfg.elements))]
            for channel, rise in zip(rises, row):
                channel.add(rise)
        assert len(rises[0]) == steps
        assert [len(channel) for channel in rises[1:]] == [3, 3, 3, 3]
        with mock.patch.object(bridge, "_railed_gain", wraps=bridge._railed_gain) as stage:
            simulate_plan(cfg, scenario, seed=0)
        assert 0 < stage.call_count <= 2 * sum(map(len, rises))

    def test_distinct_loads_cost_a_bounded_setup(self, tmp_path):
        # Traced set-up peak per distinct load, from N and 4N steps shaped
        # like the tap-storm benchmark: a press of a new force on one of the
        # quadrant sets, then a release to 0 N. The set-up holds a table row,
        # a row index and key per load, the fabric's conversion tables per
        # force and each load's codes; about 690 B here, against about
        # 1,100 B when every channel of every load was converted. The cyclic
        # collector is off while tracing: a collection in one of the two
        # runs moved this figure between about 670 and 840 B.
        import gc
        import tracemalloc

        quadrants = ("1", "2", "3", "4", "1+2", "3+4", "1+3", "2+4", "1+2+3+4", "1+2+3")

        def setup_peak(steps):
            rnd, path = random.Random(steps), tmp_path / f"{steps}.csv"
            path.write_text("t,force_n,quadrants\n" + "".join(
                f"{0.5 * k!r},{rnd.uniform(0.05, 1.5)!r},{rnd.choice(quadrants)}\n" if k % 2
                else f"{0.5 * k!r},0.0,\n" for k in range(steps)))
            collecting = gc.isenabled()
            gc.disable()
            tracemalloc.start()
            try:
                scenario = load_scenario(path)
                kept = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                next(simulate_plan(default_config(), scenario, seed=0)[0]())
                return tracemalloc.get_traced_memory()[1] - kept
            finally:
                tracemalloc.stop()
                if collecting:
                    gc.enable()

        setup_peak(300)  # the lazy imports and a first block, outside the counts
        steps = 2000
        peak, peak_4n = setup_peak(steps), setup_peak(4 * steps)
        assert (peak_4n - peak) / (3 * steps // 2) < 850  # 3N more steps, half of them new loads


class TestCaptureProtocolDataset:
    def test_shape_and_order(self, cfg, chain_dataset):
        assert len(chain_dataset) == 100
        # forces follow the ascending-weight protocol expansion
        forces = sorted(set(np.round(chain_dataset.forces, 12)))
        assert len(forces) == 12
        assert forces[0] == pytest.approx(gw_to_newtons(5), rel=1e-12)
        assert forces[-1] == pytest.approx(gw_to_newtons(100), rel=1e-12)

    def test_signals_monotone_with_force_on_average(self, chain_dataset):
        # heavier weights must read higher signals
        by_weight = {}
        for v, w in zip(chain_dataset.signals, chain_dataset.weights_gw):
            by_weight.setdefault(w, []).append(v)
        means = [np.mean(by_weight[w]) for w in sorted(by_weight)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_reproducible(self, cfg):
        a = capture_protocol_dataset(cfg, seed=3)
        b = capture_protocol_dataset(cfg, seed=3)
        assert np.array_equal(a.signals, b.signals)

    #: sha256 of the saved dataset CSV, per (case, seed).
    DIGESTS = {
        ("default", 0): "16d661e3a35bd7d197efd215cadefde330cc04b7114e89a80838016a29ee9e1f",
        ("default", 7): "8609b59c4bb6a31a417e583f89443474b193da9679bd9dfc81b5f68145065ca5",
        ("default", 123456789):
            "a9c8953c7d3e6a268e935f9458e08016e0e6c650d3e25e0f62acfa75c17c8d61",
        ("gain_22", 0): "33495905fb4970cac508562e0bf57cce9950fa19f4a0757b4a6ab554c384c19f",
        ("gain_22", 7): "08d7ba8902cec1068af3a093ee3ed0ccc81ac3d984e6142c16bacbfe0b1c2001",
        ("gain_22", 123456789):
            "e977a233ffec36597bd255578841138a95f35c526838d28cc65239d3c8d95133",
        ("counts", 0): "099bb63442618246cc91d5a0d56a116eb1c81d82f6eba6580559259ab7b63ced",
        ("counts", 7): "f589cfab87a84410dcd401c4ad9ef781ea6b990e0b29e9e9aa73302f78869f29",
        ("counts", 123456789):
            "b2f64282e66027eb1e100610dac94b6b34c57aab64849466724add234930d73e",
        ("adc_10_bits", 0): "67f1694c9b0e5ea1038ae4ddcd71a1051eed16a50faa25a1e670f3cf44e6b521",
        ("adc_10_bits", 7): "3e25618e43d919d00e77c055dfd7710f6e186e0dd2d105c4d8260410ae727249",
        ("adc_10_bits", 123456789):
            "a5af19709601e505589fabbc64e5f91fcca9411a3360fcefc2ebb379aa1219d8",
        ("custom_weights", 0):
            "0e6168fd8f9cb8f979e8c60d45692e28d7c84df659e86ecf74b809c74bf0c829",
        ("custom_weights", 7):
            "fb4df0dc6c92247d9b81bc3fdf61506f04a9c70679e412526f6f4cba23a46e3b",
        ("custom_weights", 123456789):
            "54af6df1aed24439edb951771af69266633ae5999524f7ebe6962ae8422b086a",
    }
    CASES = {
        "default": (default_config(), None),
        "gain_22": (default_config(bridge=BridgeConfig(amplifier_gain=22.0)), None),
        "counts": (default_config(signal_units="counts"), None),
        "adc_10_bits": (default_config(adc=AdcConfig(bits=10)), None),
        "custom_weights": (default_config(), [(5, 3), (35, 1), (100, 4), (250, 2)]),
    }

    @pytest.mark.parametrize("case, seed", sorted(DIGESTS))
    def test_dataset_bytes_are_pinned(self, case, seed, tmp_path):
        cfg, weights = self.CASES[case]
        path = tmp_path / "dataset.csv"
        save_dataset(path, capture_protocol_dataset(cfg, seed=seed, weights=weights))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[case, seed]


class TestEstimateFrames:
    def test_zero_stream_gives_zero_frames(self, cfg):
        est = make_estimator_config(
            cfg, _linear_volts_model()
        )
        samples = [SampleLine(k / 9.6, (0,) * 5) for k in range(5)]
        frames = list(estimate_frames(cfg, est, samples))
        assert len(frames) == 5
        for frame in frames:
            assert frame.raw_force == 0.0
            assert frame.filtered_force == 0.0
            assert frame.element_state == (False,) * 4
            assert frame.pattern == "none"

    def test_steady_press_converges_to_weight(self, cfg, est_cfg):
        force = gw_to_newtons(50)
        samples = simulate_samples(cfg, press_scenario(force, 2, duration=3.0), seed=2)
        frames = list(estimate_frames(cfg, est_cfg, samples))
        settled = [f for f in frames if 0.5 <= f.time < 3.0]
        for frame in settled:
            assert frame.filtered_force == pytest.approx(force, abs=est_cfg.resolution)
            assert frame.element_state == (False, True, False, False)
            assert frame.pattern == "point"

    def test_streaming_is_lazy(self, cfg):
        est = make_estimator_config(cfg, _linear_volts_model())
        pulled = []

        def lazy_samples():
            for k in range(10_000):
                pulled.append(k)
                yield SampleLine(k / 9.6, (0,) * 5)

        frames = estimate_frames(cfg, est, lazy_samples())
        next(frames)
        next(frames)
        assert len(pulled) <= 3

    def test_non_monotonic_stream_names_position(self, cfg):
        est = make_estimator_config(cfg, _linear_volts_model())
        samples = [
            SampleLine(0.0, (0,) * 5, line_number=1),
            SampleLine(1.0, (0,) * 5, line_number=2),
            SampleLine(0.5, (0,) * 5, line_number=3),
        ]
        with pytest.raises(StreamError, match="line 3"):
            list(estimate_frames(cfg, est, samples))

    def test_non_integral_code_rejected(self, cfg):
        est = make_estimator_config(cfg, _linear_volts_model())
        samples = [SampleLine(0.0, (0.5, 0, 0, 0, 0))]
        with pytest.raises(DataError):
            list(estimate_frames(cfg, est, samples))

    def test_out_of_range_code_rejected(self, cfg):
        est = make_estimator_config(cfg, _linear_volts_model())
        samples = [SampleLine(0.0, (999, 0, 0, 0, 0))]
        with pytest.raises(DataError):
            list(estimate_frames(cfg, est, samples))

    @pytest.mark.parametrize("units", ["volts", "counts"])
    def test_element_signal_at_its_threshold_is_on(self, units):
        """An element is on from the code whose signal equals its threshold."""
        cfg = default_config(signal_units=units)
        k = 100
        est = EstimatorConfig(
            model=_linear_volts_model(),
            element_thresholds=(channel_signal(cfg, k),) * 4,
            sensing_range=1.0,
            resolution=0.05,
        )
        codes = (0, k, k - 1, k, k - 1)
        # The block pass compares each element's code with its threshold code, and
        # estimate_frames (through process_frame) its signal with the threshold.
        lines = [f"{t!r},{','.join(map(str, codes))}\n" for t in (0.0, 0.5)]
        out = io.StringIO()
        estimate_lines(cfg, est, lines, out)
        assert [line.split(",", 3)[3] for line in out.getvalue().splitlines()] == [
            "1,0,1,0,line"] * 2
        frames = estimate_frames(cfg, est, [SampleLine(0.0, codes)])
        assert next(frames).element_state == (True, False, True, False)

    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
    def test_non_finite_channel_value_rejected(self, cfg, value):
        est = make_estimator_config(cfg, _linear_volts_model())
        samples = [SampleLine(0.0, (0,) * 5), SampleLine(0.5, (0, 0, value, 0, 0))]
        message = f"^sample 2: channel value {value!r} is not an ADC code$"
        with pytest.raises(DataError, match=message):
            list(estimate_frames(cfg, est, samples))

    @pytest.mark.parametrize("samples, error, message", [
        ([SampleLine(0.0, (0,) * 5), SampleLine(0.0, (0,) * 5)], StreamError,
         "sample 2: timestamp 0.0 s does not advance past 0.0 s"),
        ([SampleLine(0.0, (999, 0, 0, 0, 0), line_number=4)], DataError,
         "line 4: code 999 outside [0, 255]"),
    ])
    def test_errors_keep_their_class_and_name_the_sample_once(self, cfg, samples, error, message):
        est = make_estimator_config(cfg, _linear_volts_model())
        with pytest.raises(DataError) as info:
            list(estimate_frames(cfg, est, samples))
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("line_number, where", ((None, "sample 2"), (7, "line 7")))
    def test_force_signal_that_overflows_is_a_data_error(self, line_number, where):
        cfg = default_config(adc=AdcConfig(full_scale=1.7e308))  # code 200's signal is inf
        est = make_estimator_config(cfg, _linear_volts_model())
        samples = [SampleLine(0.0, (1, 0, 0, 0, 0)),
                   SampleLine(0.5, (200, 0, 0, 0, 0), line_number=line_number)]
        with pytest.raises(DataError) as info:
            list(estimate_frames(cfg, est, samples))
        assert type(info.value) is DataError
        assert str(info.value) == f"{where}: signal value must be finite"

    @pytest.mark.parametrize("time", (math.inf, math.nan))
    def test_non_finite_sample_time_rejected(self, time):
        with pytest.raises(ValueError, match="^sample time must be finite$"):
            SampleLine(time, (0,) * 5)


#: The line ends every input is split at.
LINE_ENDS = ("\n", "\r\n", "\r")


def _replay_outcome(replay, lines):
    """(text written, error type, message, line number) of ``replay(lines, out)``."""
    out = io.StringIO()
    try:
        replay(lines, out)
    except Exception as exc:  # compared, not swallowed
        return out.getvalue(), type(exc), str(exc), getattr(exc, "line_number", None)
    return out.getvalue(), None, None, None


class TestBlockHandOffs:
    """``estimate_lines`` in blocks of a few lines writes what a per-line
    replay writes: the frames of ``estimate_frames`` over ``read_samples``,
    with each filtered force from ``moving_average``, and the same error
    after the same frames."""

    @staticmethod
    def lines(count, seed=0, max_code=255, first=0):
        rnd = random.Random(seed)
        palette = [rnd.randint(0, max_code) for _ in range(6)] + [0, max_code]
        return [f"{(first + k) / 9.6!r},"
                + ",".join(str(rnd.choice(palette)) for _ in range(5)) + "\n"
                for k in range(count)]

    @staticmethod
    def check(cfg, est, lines, blocks=(1, 2, 3, 4)):
        def reference(lines, out):
            window = deque(maxlen=est.filter_window)
            for frame in estimate_frames(cfg, est, read_samples(lines)):
                window.append(frame.raw_force)
                frame = replace(frame, filtered_force=moving_average(window))
                out.write(format_frame(frame) + "\n")

        expected = _replay_outcome(reference, lines)
        for block in blocks:
            with mock.patch.object(pipeline, "BLOCK_TICKS", block):
                replay = _replay_outcome(lambda lines, out: estimate_lines(cfg, est, lines, out),
                                         lines)
            assert replay == expected, f"BLOCK_TICKS = {block}"
        return expected

    def test_window_wider_than_a_block_straddles_a_declined_block(self, cfg):
        est = replace(make_estimator_config(cfg, _linear_volts_model()), filter_window=7)
        lines = self.lines(20)
        lines[9] = lines[9].replace(",", ", ")  # padded fields: that block is declined
        lines.insert(10, "# a comment\n")
        text, error, _, _ = self.check(cfg, est, lines)
        assert error is None and text.count("\n") == 20

    @pytest.mark.parametrize("late", (0.0, -0.0, 5 / 9.6))
    def test_time_that_does_not_advance_on_a_blocks_first_line(self, cfg, late):
        est = make_estimator_config(cfg, _linear_volts_model())
        lines = self.lines(12)
        lines[6] = f"{late!r}," + lines[6].split(",", 1)[1]  # line 7 opens a block of 2 or 3
        text, error, message, _ = self.check(cfg, est, lines, blocks=(2, 3, 6))
        assert error is StreamError and message.startswith("line 7: timestamp ")
        assert text.count("\n") == 6

    @pytest.mark.parametrize("bad", ("-1.0", "-5e-324", "nan", "inf", "1e999"))
    @pytest.mark.parametrize("k", (1, 7))
    def test_time_that_is_not_finite_and_non_negative(self, cfg, bad, k):
        est = make_estimator_config(cfg, _linear_volts_model())
        lines = self.lines(12)
        lines[k - 1] = f"{bad}," + lines[k - 1].split(",", 1)[1]
        text, error, _, line_number = self.check(cfg, est, lines, blocks=(2, 3, 6))
        assert error is ParseError and line_number == k
        assert text.count("\n") == k - 1

    def test_crlf_line_ends_and_an_unterminated_last_line(self, cfg, monkeypatch):
        """LF, CRLF and CR lines, the last unterminated, all take the block pass."""
        est = make_estimator_config(cfg, _linear_volts_model())
        respelled = count_calls(monkeypatch, pipeline._Replay, "respell")
        texts = set()
        for end in LINE_ENDS:
            lines = [line.replace("\n", end) for line in self.lines(9)]
            lines[-1] = lines[-1].rstrip()
            text, error, _, _ = self.check(cfg, est, lines)
            assert error is None and text.count("\n") == 9
            assert respelled == [], f"line end {end!r}"
            texts.add(text)
        assert len(texts) == 1

    def test_float_codes_and_integer_and_negative_zero_times(self, cfg):
        est = make_estimator_config(cfg, _linear_volts_model())
        lines = self.lines(10, first=1)
        lines = ["-0.0," + lines[0].split(",", 1)[1]] + lines[1:]
        time, codes = lines[3].split(",", 1)
        lines[3] = time + "".join(f",{code}.0" for code in codes.rstrip().split(",")) + "\n"
        lines[5] = "6," + lines[5].split(",", 1)[1]  # integer times: 6 s, then 7 / 9.6 s on line 7
        lines[7] = "8," + lines[7].split(",", 1)[1]
        text, error, message, _ = self.check(cfg, est, lines)
        assert text.startswith("-0.0,")
        assert error is StreamError and message.startswith("line 7: ")

    def test_twelve_bit_stream(self):
        cfg = default_config(adc=AdcConfig(bits=12))
        est = make_estimator_config(cfg, _linear_volts_model())
        lines = self.lines(40, seed=12, max_code=4095)
        lines[17] = lines[17].rsplit(",", 1)[0] + ",4096\n"
        text, error, message, _ = self.check(cfg, est, lines, blocks=(1, 3, 8, 1024))
        assert error is DataError and message == "line 18: code 4096 outside [0, 4095]"
        assert text.count("\n") == 17


class _PassCountingLines(list):
    """A block's lines that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("fields", (3, 4))
def test_a_block_with_a_comment_is_declined_before_it_is_split(fields):
    """``_columns`` reads the block's joined text once, finds the ``#`` and
    declines the block without splitting its lines."""
    lines = TestBlockHandOffs.lines(6)
    commented = _PassCountingLines([*lines[:3], "# a comment\n", *lines[3:]])
    assert pipeline._columns(commented, fields) is None
    assert commented.passes == 1
    plain = _PassCountingLines(lines)
    assert pipeline._columns(plain, fields) is not None
    assert plain.passes == 2


def test_clock_error_after_a_skipped_line_names_its_own_line(cfg):
    """A declined block's respelled lines keep their numbers past the lines it skips."""
    est = make_estimator_config(cfg, _linear_volts_model())
    lines = TestBlockHandOffs.lines(6)
    lines[4] = lines[2]  # file line 6, after the comment, repeats line 4's time
    lines.insert(1, "# a comment\n")
    text, error, message, _ = TestBlockHandOffs.check(cfg, est, lines, blocks=(3, 8))
    assert error is StreamError and message.startswith("line 6: timestamp ")
    assert text.count("\n") == 4


class TestAlternateConfigurations:
    def test_counts_units_end_to_end(self):
        from tactsim import cross_validate, fit_polynomial

        cfg = default_config(signal_units="counts")
        dataset = capture_protocol_dataset(cfg, seed=7)
        assert dataset.signals.max() <= cfg.adc.max_code
        report = cross_validate(dataset, seed=7)
        model = fit_polynomial(
            dataset.signals, dataset.forces, report.selected_order,
            signal_units="counts",
        )
        est = make_estimator_config(cfg, model)
        scenario = press_scenario(0.49, 2, duration=3.0)
        frames = estimate_frames(cfg, est, simulate_samples(cfg, scenario, seed=1))
        steady = [f.filtered_force for f in frames if 0.5 <= f.time < 3.0]
        assert sum(steady) / len(steady) == pytest.approx(0.49, abs=est.resolution)

    def test_low_gain_variant_spans_wider_range(self):
        from dataclasses import replace

        from tactsim import cross_validate, fit_polynomial

        base = default_config()
        cfg = replace(base, bridge=replace(base.bridge, amplifier_gain=22.0))
        dataset = capture_protocol_dataset(cfg, seed=7)
        report = cross_validate(dataset, seed=7)
        model = fit_polynomial(dataset.signals, dataset.forces, report.selected_order)
        est = make_estimator_config(cfg, model)
        assert (est.sensing_range, est.resolution) == (1.5, 0.1)
        # 1.2 N sits beyond the calibration weights but inside this range
        scenario = press_scenario(1.2, 1, duration=3.0)
        frames = estimate_frames(cfg, est, simulate_samples(cfg, scenario, seed=1))
        steady = [f.filtered_force for f in frames if 0.5 <= f.time < 3.0]
        assert sum(steady) / len(steady) == pytest.approx(1.2, abs=est.resolution)
        # and a gross overload clamps at 1.5 N, not 1.0 N
        overload = press_scenario(3.0, 1, duration=2.0)
        frames = list(
            estimate_frames(cfg, est, simulate_samples(cfg, overload, seed=1))
        )
        assert max(f.filtered_force for f in frames) == 1.5


class TestSummarize:
    def test_perfect_frames_score_zero(self, cfg):
        est = make_estimator_config(cfg, _linear_volts_model())
        scenario = quiet_scenario(1.0)
        samples = simulate_samples(cfg, scenario, seed=0)
        frames = estimate_frames(cfg, est, samples)
        summary = summarize_frames(frames, sensing_range=1.0, truth=scenario)
        assert "rmse_n,0.0" in summary.splitlines()

    def test_accuracy_replay_reports_small_rmse(self, cfg, est_cfg):
        scenario = accuracy_scenario()
        frames = estimate_frames(
            cfg, est_cfg, simulate_samples(cfg, scenario, seed=3)
        )
        summary = summarize_frames(frames, est_cfg.sensing_range, truth=scenario)
        values = dict(line.split(",", 1) for line in summary.splitlines())
        assert float(values["rmse_n"]) <= 0.15
        assert int(values["frames"]) == 154
        assert float(values["duty_cycle_e1"]) > 0.8

    def test_saturation_counted(self, cfg, est_cfg):
        scenario = LoadScenario((
            LoadStep(0.0, 2.0, frozenset({1})),
            LoadStep(2.0, 0.0, frozenset()),
        ))
        frames = estimate_frames(cfg, est_cfg, simulate_samples(cfg, scenario, seed=0))
        summary = summarize_frames(frames, est_cfg.sensing_range)
        values = dict(line.split(",", 1) for line in summary.splitlines())
        assert int(values["saturated_frames"]) > 0

    def test_empty_stream(self):
        assert summarize_frames([], sensing_range=1.0) == "frames,0"

    def test_crlf_line_ends_summarize_as_lf(self, monkeypatch):
        """LF, CRLF and CR lines, the last unterminated, all take the block pass."""
        from tactsim.pipeline import summarize_lines

        respelled = count_calls(monkeypatch, pipeline._FrameCounts, "respell")
        lines = ("0.0,0.5,0.5,1,0,0,0,point", "0.1,1.5,0.25,0,0,0,0,none",
                 "0.2,0.5,0.5,1,1,0,0,line")
        for truth in (None, LoadScenario((LoadStep(0.0, 0.5, frozenset({1})),))):
            summaries = set()
            for end in LINE_ENDS:
                summaries.add(summarize_lines([line + end for line in lines[:-1]] + [lines[-1]],
                                              1.0, truth=truth))
                assert respelled == [], f"line end {end!r}"
            (summary,) = summaries
            assert summary == summarize_frames(map(parse_frame, lines), 1.0, truth=truth)
            assert {"saturated_frames,1", "pattern_line,1"} <= set(summary.splitlines())
            assert ("rmse_n" in summary) == (truth is not None)

    @pytest.mark.parametrize("block", (1, 2, 3, 1024))
    def test_frame_at_a_step_time_takes_that_steps_force(self, block, monkeypatch):
        from tactsim import EstimateFrame, pipeline

        scenario = LoadScenario((
            LoadStep(0.0, 1.0, frozenset({1})),
            LoadStep(1.0, 0.0, frozenset()),
            LoadStep(2.0, 0.5, frozenset({2})),
        ))
        frames = [EstimateFrame(t, 0.0, force, (False,) * 4, "none")
                  for t, force in ((0.5, 1.0), (1.0, 0.0), (1.5, 0.0), (2.0, 0.5), (3.0, 0.5))]
        monkeypatch.setattr(pipeline, "BLOCK_TICKS", block)
        summary = summarize_frames(frames, sensing_range=1.0, truth=scenario)
        assert summary.endswith("\nrmse_n,0.0")


def _linear_volts_model():
    from tactsim import PolynomialModel

    return PolynomialModel((-0.01, 0.2), "volts")
