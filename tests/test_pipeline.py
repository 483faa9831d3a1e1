import hashlib
import io

import numpy as np
import pytest

from tactsim import (
    AdcConfig,
    BridgeConfig,
    DataError,
    EstimatorConfig,
    LoadScenario,
    LoadStep,
    StreamError,
    adc_sample,
    amplify,
    bridge_output,
    capture_protocol_dataset,
    default_config,
    dequantize,
    estimate_frames,
    fabric_delta_r,
    gw_to_newtons,
    make_estimator_config,
    save_dataset,
    simulate_samples,
    summarize_frames,
)
from tactsim.config import channel_signal
from tactsim.pipeline import estimate_lines, sample_times
from tactsim.streams import SampleLine

from conftest import accuracy_scenario


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


class TestSampleClock:
    def test_one_second_yields_ten_ticks(self):
        times = list(sample_times(9.6, 1.0))
        assert len(times) == 10
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.9375, abs=0)

    def test_ticks_are_exact_multiples(self):
        for k, t in enumerate(sample_times(9.6, 5.0)):
            assert t == k / 9.6

    def test_exact_endpoint_included(self):
        # 2.5 s at 9.6 Hz lands exactly on tick 24
        times = list(sample_times(9.6, 2.5))
        assert len(times) == 25


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
        # The first tick fills the code tables; the second is looked up in them.
        lines = [f"{t!r},{','.join(map(str, codes))}\n" for t in (0.0, 0.5)]
        out = io.StringIO()
        estimate_lines(cfg, est, lines, out)
        assert [line.split(",", 3)[3] for line in out.getvalue().splitlines()] == [
            "1,0,1,0,line"] * 2
        frames = estimate_frames(cfg, est, [SampleLine(0.0, codes)])
        assert next(frames).element_state == (True, False, True, False)


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

    def test_crlf_line_ends_summarize_as_lf(self):
        from tactsim.pipeline import summarize_lines

        scenario = LoadScenario((LoadStep(0.0, 0.5, frozenset({1})),))
        lines = ("0.0,0.5,0.5,1,0,0,0,point", "0.1,1.5,0.25,0,0,0,0,none",
                 "0.2,0.5,0.5,1,1,0,0,line")
        crlf = summarize_lines([line + "\r\n" for line in lines], 1.0, truth=scenario)
        assert crlf == summarize_lines([line + "\n" for line in lines], 1.0, truth=scenario)
        assert "saturated_frames,1" in crlf.splitlines()

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
