"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N [...]: PASS/FAIL`` line (visible
with ``pytest -s``) and enforces the criterion's runtime budget on top
of its numerical tolerance.
"""

import contextlib
import functools
import io
import random
import time
from collections import deque

import numpy as np
import pytest

from tactsim import (
    BridgeConfig,
    PRESET_MODELS,
    bridge_output,
    build_design_matrix,
    cross_validate,
    dequantize,
    adc_sample,
    AdcConfig,
    evaluate_model,
    gw_to_newtons,
    kfold_split,
    least_squares_fit,
    moving_average,
    range_for_gain,
    rmse,
    save_dataset,
    save_scenario,
    synthetic_protocol_dataset,
    thevenin_slope,
)
from tactsim.cli import main
from tactsim.estimator import parse_frame

from conftest import accuracy_scenario, replay_scenario


def criterion(number, title, budget_s):
    """Print one verdict line per criterion and hold it to its budget."""

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if elapsed >= budget_s:
                    raise AssertionError(
                        f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"
                    )
            except BaseException:
                print(f"criterion {number:>2} [{title}]: FAIL")
                raise
            print(f"criterion {number:>2} [{title}]: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorator


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory, chain_dataset):
    """Calibration artifacts shared by the end-to-end criteria."""
    root = tmp_path_factory.mktemp("acceptance")
    dataset_path = root / "calibration.csv"
    save_dataset(dataset_path, chain_dataset)
    model_path = root / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["calibrate", str(dataset_path), "-o", str(model_path),
                     "--seed", "7"])
    assert code == 0
    return root, model_path


def _run_replay(root, model_path, scenario, name, seed):
    scenario_path = root / f"{name}.csv"
    save_scenario(scenario_path, scenario)
    stream_path = root / f"{name}_stream.csv"
    frames_path = root / f"{name}_frames.csv"
    assert main(["simulate", str(scenario_path), "-o", str(stream_path),
                 "--seed", str(seed)]) == 0
    assert main(["estimate", str(stream_path), "-m", str(model_path),
                 "-o", str(frames_path)]) == 0
    return [parse_frame(line, i + 1)
            for i, line in enumerate(frames_path.read_text().splitlines())]


@criterion(1, "thevenin slope endpoints", budget_s=1.0)
def test_criterion_1_thevenin_endpoints():
    rx = 100e3
    assert thevenin_slope(rx, 0.0) == 0.25
    assert abs(thevenin_slope(rx, 0.35 * rx) - 0.1811) <= 0.0005
    slopes = [thevenin_slope(rx, d) for d in np.linspace(0.0, 0.35 * rx, 500)]
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


@criterion(2, "balanced bridge null", budget_s=1.0)
def test_criterion_2_balanced_null():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        r1, r2, rx = 10.0 ** rng.uniform(3, 6, size=3)
        cfg = BridgeConfig(r1=r1, r2=r2, r3=r1 * rx / r2, rx_rest=rx)
        assert abs(bridge_output(cfg, 0.0)) < 1e-12 * cfg.supply_voltage


@criterion(3, "published model coefficient recovery", budget_s=1.0)
def test_criterion_3_preset_recovery():
    for order, model in PRESET_MODELS.items():
        signals = np.linspace(0.0, 12.0, 60)
        forces = evaluate_model(model, signals)
        coeffs = least_squares_fit(build_design_matrix(signals, order), forces)
        assert np.abs(coeffs - np.array(model.coefficients)).max() <= 1e-6


@criterion(4, "training error monotone in order", budget_s=5.0)
def test_criterion_4_training_monotonicity():
    dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=0)
    folds = kfold_split(dataset, k=5, seed=0)
    train = folds != 0
    errors = []
    for order in (1, 2, 3, 4, 5):
        design = build_design_matrix(dataset.signals[train], order)
        coeffs = least_squares_fit(design, dataset.forces[train])
        predicted = design @ coeffs
        errors.append(rmse(predicted, dataset.forces[train]))
    for low, high in zip(errors, errors[1:]):
        assert high <= low + 1e-10


@criterion(5, "cross-validation error scale", budget_s=10.0)
def test_criterion_5_cv_scale():
    dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=0)
    report = cross_validate(dataset, repeats=20, seed=0)
    assert 0.07 <= report.selected_test_rmse() <= 0.13


@criterion(6, "three-weight accuracy replay", budget_s=10.0)
def test_criterion_6_accuracy_replay(cli_files):
    root, model_path = cli_files
    frames = _run_replay(root, model_path, accuracy_scenario(), "accuracy", seed=3)
    presses = {1.0: gw_to_newtons(20), 6.0: gw_to_newtons(50), 11.0: gw_to_newtons(100)}
    in_press = []
    for start, true_force in presses.items():
        # sample while the weight rests on the pad, after the filter settles
        window = [f for f in frames if start + 0.5 <= f.time < start + 5.0]
        assert len(window) > 40
        mean = sum(f.filtered_force for f in window) / len(window)
        assert abs(mean - true_force) <= 0.15
        in_press.extend((f.filtered_force, true_force) for f in window)
    overall = rmse([e for e, _ in in_press], [t for _, t in in_press])
    assert overall <= 0.15


@criterion(7, "saturation and location replay", budget_s=5.0)
def test_criterion_7_saturation_replay(cli_files):
    root, model_path = cli_files
    frames = _run_replay(root, model_path, replay_scenario(), "replay", seed=11)
    sensing_range = range_for_gain(41.36)[0]
    # the overloaded press pins the estimate exactly at the range ceiling
    overload = [f for f in frames if 4.5 <= f.time < 6.0]
    assert overload
    assert all(f.raw_force == sensing_range for f in overload)
    assert all(f.filtered_force == sensing_range for f in overload)
    # element activations appear in scenario order, one location at a time
    activation_order = []
    for frame in frames:
        for element, on in enumerate(frame.element_state, start=1):
            if on and element not in activation_order:
                activation_order.append(element)
    assert activation_order == [1, 2, 3, 4]
    press_windows = {1: (1.0, 3.0), 2: (4.0, 6.0), 3: (7.0, 9.0), 4: (10.0, 12.0)}
    for element, (start, end) in press_windows.items():
        for frame in frames:
            if start <= frame.time < end:
                expected = tuple(q == element for q in (1, 2, 3, 4))
                assert frame.element_state == expected
                assert frame.pattern == "point"


@criterion(8, "gain table lookup", budget_s=1.0)
def test_criterion_8_range_table():
    assert range_for_gain(22.0) == (1.5, 0.1)
    assert range_for_gain(41.36) == (1.0, 0.05)


@criterion(9, "moving-average filter contract", budget_s=5.0)
def test_criterion_9_filter_contract():
    # a step settles in exactly the window length
    window = deque(maxlen=4)
    for _ in range(8):
        window.append(0.2)
    outputs = []
    for _ in range(6):
        window.append(0.9)
        outputs.append(moving_average(window))
    assert outputs[2] != 0.9
    assert all(value == 0.9 for value in outputs[3:])
    # mean stays inside the window extremes on random streams
    rng = random.Random(99)
    for _ in range(10_000):
        stream = [rng.uniform(0.0, 1.5) for _ in range(rng.randint(1, 12))]
        window = deque(maxlen=4)
        for value in stream:
            window.append(value)
            filtered = moving_average(window)
            assert min(window) <= filtered <= max(window)


@criterion(10, "quantization error bound", budget_s=1.0)
def test_criterion_10_quantization_bound():
    adc = AdcConfig(bits=8, full_scale=5.0)
    half_lsb = adc.full_scale / (2 * adc.max_code)
    for v in np.linspace(-1.0, 6.0, 100_000):
        clamped = min(max(v, 0.0), adc.full_scale)
        assert abs(dequantize(adc, adc_sample(adc, v)) - clamped) <= half_lsb


@criterion(11, "CLI determinism", budget_s=5.0)
def test_criterion_11_cli_determinism(cli_files, capsys, tmp_path):
    root, _ = cli_files
    dataset_path = root / "calibration.csv"
    scenario_path = tmp_path / "scenario.csv"
    save_scenario(scenario_path, accuracy_scenario())

    outputs = {}
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.json"
        stream = tmp_path / f"stream_{tag}.csv"
        frames = tmp_path / f"frames_{tag}.csv"
        assert main(["calibrate", str(dataset_path), "-o", str(model),
                     "--seed", "7"]) == 0
        cal_out = capsys.readouterr().out
        assert main(["simulate", str(scenario_path), "-o", str(stream),
                     "--seed", "3"]) == 0
        assert main(["estimate", str(stream), "-m", str(model),
                     "-o", str(frames)]) == 0
        assert main(["report", str(frames), "--truth", str(scenario_path),
                     "--rmse"]) == 0
        report_out = capsys.readouterr().out
        outputs[tag] = (
            cal_out, model.read_bytes(), stream.read_bytes(),
            frames.read_bytes(), report_out,
        )
    assert outputs["a"] == outputs["b"]
