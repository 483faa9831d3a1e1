import json
import math
import re

import numpy as np
import pytest

from tactsim import (
    CalibrationDataset,
    ParseError,
    PolynomialModel,
    PRESET_MODELS,
    SingularFitError,
    UnderdeterminedFitError,
    UsageError,
    build_design_matrix,
    cross_validate,
    evaluate_model,
    fit_polynomial,
    invert_model,
    kfold_split,
    least_squares_fit,
    load_dataset,
    load_model,
    protocol_weights,
    save_dataset,
    save_model,
    synthetic_protocol_dataset,
)
from tactsim.calibration import protocol_forces


class TestProtocolWeights:
    def test_total_is_one_hundred(self):
        assert sum(count for _, count in protocol_weights()) == 100

    def test_individual_counts(self):
        counts = dict(protocol_weights())
        assert counts[50] == 10
        assert counts[20] == 9
        assert counts[100] == 9
        assert counts[5] == 8
        assert all(
            counts[w] == 8 for w in (5, 10, 25, 35, 45, 55, 65, 75, 85)
        )

    def test_twelve_weights(self):
        assert len(protocol_weights()) == 12

    def test_expanded_forces(self):
        forces = protocol_forces()
        assert len(forces) == 100
        assert min(forces) == pytest.approx(0.049, rel=1e-12)
        assert max(forces) == pytest.approx(0.98, rel=1e-12)


class TestDesignMatrix:
    def test_single_row(self):
        assert build_design_matrix([2.0], 1).tolist() == [[1.0, 2.0]]

    def test_powers_by_hand(self):
        assert build_design_matrix([1.0, 3.0], 2).tolist() == [
            [1.0, 1.0, 1.0],
            [1.0, 3.0, 9.0],
        ]

    def test_zero_signal(self):
        assert build_design_matrix([0.0], 3).tolist() == [[1.0, 0.0, 0.0, 0.0]]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            build_design_matrix([1.0, math.nan], 1)


class TestLeastSquares:
    def test_exact_line_interpolation(self):
        v = np.array([0.0, 1.0, 2.0, 5.0])
        f = 1.0 + 2.0 * v
        coeffs = least_squares_fit(build_design_matrix(v, 1), f)
        assert coeffs == pytest.approx([1.0, 2.0], abs=1e-12)

    @pytest.mark.parametrize("order", sorted(PRESET_MODELS))
    def test_preset_recovery_from_noise_free_data(self, order):
        model = PRESET_MODELS[order]
        v = np.linspace(0.0, 12.0, 60)
        f = evaluate_model(model, v)
        coeffs = least_squares_fit(build_design_matrix(v, order), f)
        assert coeffs == pytest.approx(model.coefficients, abs=1e-9)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(0)
        for order in (1, 2, 3, 4, 5):
            v = rng.uniform(0.0, 12.0, size=40)
            f = rng.uniform(0.0, 1.2, size=40)
            design = build_design_matrix(v, order)
            x = least_squares_fit(design, f)
            residual_proj = design.T @ (design @ x - f)
            bound = 1e-8 * np.abs(design).sum(axis=1).max() * np.abs(f).max()
            assert np.abs(residual_proj).max() <= bound

    def test_nested_orders_never_increase_training_error(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.0, 12.0, size=60)
        f = 0.1 + 0.08 * v + rng.normal(0.0, 0.05, size=60)
        errors = []
        for order in (1, 2, 3, 4, 5):
            model = fit_polynomial(v, f, order)
            residual = evaluate_model(model, v) - f
            errors.append(math.sqrt(np.mean(residual**2)))
        for low, high in zip(errors, errors[1:]):
            assert high <= low + 1e-10

    def test_fit_idempotence(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0.0, 12.0, size=50)
        f = rng.uniform(0.0, 1.0, size=50)
        first = fit_polynomial(v, f, 3)
        again = fit_polynomial(v, evaluate_model(first, v), 3)
        assert again.coefficients == pytest.approx(first.coefficients, abs=1e-9)

    def test_singular_fit_names_order(self):
        v = np.full(10, 2.0)  # one distinct signal
        f = np.linspace(0.0, 1.0, 10)
        with pytest.raises(SingularFitError, match="order-2"):
            least_squares_fit(build_design_matrix(v, 2), f)

    def test_underdetermined_names_counts(self):
        with pytest.raises(UnderdeterminedFitError, match="4 samples"):
            fit_polynomial([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], 3)


class TestEvaluateModel:
    def test_intercepts(self):
        assert evaluate_model(PRESET_MODELS[1], 0.0) == -0.0650
        assert evaluate_model(PRESET_MODELS[3], 0.0) == 0.0653

    def test_linear_at_ten(self):
        assert evaluate_model(PRESET_MODELS[1], 10.0) == pytest.approx(0.8240, rel=1e-12)

    def test_intercept_exact_for_every_preset(self):
        for model in PRESET_MODELS.values():
            assert evaluate_model(model, 0.0) == model.coefficients[0]

    def test_model_validation(self):
        with pytest.raises(ValueError):
            PolynomialModel((1.0,))
        with pytest.raises(ValueError):
            PolynomialModel((1.0, math.inf))


class TestKfoldSplit:
    def test_hundred_samples_five_folds(self):
        ids = kfold_split(range(100), k=5, seed=0)
        assert sorted(np.bincount(ids).tolist()) == [20, 20, 20, 20, 20]

    def test_deterministic(self):
        a = kfold_split(range(100), k=5, seed=42)
        b = kfold_split(range(100), k=5, seed=42)
        assert np.array_equal(a, b)

    def test_partition(self):
        ids = kfold_split(range(103), k=5, seed=3)
        assert ids.size == 103
        sizes = np.bincount(ids)
        assert sizes.min() >= 1
        assert sizes.max() - sizes.min() <= 1
        assert set(ids.tolist()) == {0, 1, 2, 3, 4}

    def test_k_below_two_rejected(self):
        with pytest.raises(UsageError):
            kfold_split(range(10), k=1)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(range(3), k=5)


class TestCrossValidate:
    def test_noise_free_linear_recovery(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.0)
        report = cross_validate(dataset, repeats=3, seed=0)
        assert report.test_rmse[0] <= 1e-10
        assert all(train <= 1e-10 for train in report.train_rmse)

    def test_noisy_training_error_non_increasing(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=0)
        report = cross_validate(dataset, repeats=20, seed=0)
        for low, high in zip(report.train_rmse, report.train_rmse[1:]):
            assert high <= low + 1e-10

    def test_noisy_selected_error_near_noise_floor(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=0)
        report = cross_validate(dataset, repeats=20, seed=0)
        assert 0.07 <= report.selected_test_rmse() <= 0.13

    def test_strict_paper_mode_tests_first_fold_only(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=1)
        strict = cross_validate(dataset, repeats=5, seed=4, strict_paper=True)
        full = cross_validate(dataset, repeats=5, seed=4, strict_paper=False)
        assert strict.strict_paper and not full.strict_paper
        assert strict.orders == full.orders
        # both land near the noise floor even though strict averages fewer folds
        assert 0.05 <= strict.selected_test_rmse() <= 0.15

    def test_propagates_fit_failure_with_context(self):
        dataset = CalibrationDataset(
            np.full(20, 3.0), np.linspace(0.0, 1.0, 20)
        )
        with pytest.raises(SingularFitError, match="repeat 0"):
            cross_validate(dataset, orders=(2,), k=4, repeats=2, seed=0)

    def test_report_table_shape(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=2)
        report = cross_validate(dataset, repeats=2, seed=0)
        table = report.table()
        lines = table.splitlines()
        assert lines[0] == "order,mean_train_rmse_n,mean_test_rmse_n"
        assert len(lines) == 7  # header + five orders + selection
        assert lines[-1] == f"selected_order,{report.selected_order}"

    def test_selected_order_minimizes_test_rmse(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=3)
        report = cross_validate(dataset, repeats=5, seed=1)
        assert report.selected_test_rmse() == min(report.test_rmse)

    def test_zero_repeats_rejected(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=3)
        with pytest.raises(UsageError):
            cross_validate(dataset, repeats=0)


class TestInvertModel:
    def test_linear_inverse_is_exact(self):
        model = PRESET_MODELS[1]
        v = invert_model(model, 1.0)
        assert v == pytest.approx((1.0 + 0.0650) / 0.0889, rel=1e-12)

    def test_cubic_inverse(self):
        model = PRESET_MODELS[3]
        for force in (0.3, 0.49, 0.9):
            v = invert_model(model, force)
            assert evaluate_model(model, v) == pytest.approx(force, abs=1e-9)

    def test_unreachable_force_rejected(self):
        # the order-3 preset tops out near 0.96 N before turning back down
        with pytest.raises(ValueError):
            invert_model(PRESET_MODELS[3], 2.0)


class TestSyntheticDataset:
    def test_protocol_shape(self):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.0)
        assert len(dataset) == 100
        assert dataset.weights_gw is not None
        # noise-free readings are exactly the protocol forces
        assert dataset.forces == pytest.approx(protocol_forces(), abs=0)

    def test_noise_is_seeded(self):
        a = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=5)
        b = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.09, seed=5)
        assert np.array_equal(a.forces, b.forces)

    @pytest.mark.parametrize("order", (1, 2))
    def test_low_order_presets_regenerate_protocol(self, order):
        model = PRESET_MODELS[order]
        dataset = synthetic_protocol_dataset(model, noise_sigma=0.0)
        assert dataset.forces.tolist() == protocol_forces()
        expected = [float(w) for w, count in protocol_weights() for _ in range(count)]
        assert dataset.weights_gw.tolist() == expected
        assert evaluate_model(model, dataset.signals) == pytest.approx(dataset.forces, abs=1e-9)

    @pytest.mark.parametrize("order, force", ((3, "0.98"), (4, "0.049"), (5, "0.049")))
    def test_high_order_presets_name_first_unreachable_force(self, order, force):
        with pytest.raises(ValueError, match=f"^force {re.escape(force)} N is not reached"):
            synthetic_protocol_dataset(PRESET_MODELS[order])


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        model = PolynomialModel((0.01, 0.2, -0.003), "volts")
        save_model(path, model)
        loaded = load_model(path)
        assert loaded == model

    def test_metadata_written(self, tmp_path):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.05, seed=0)
        report = cross_validate(dataset, repeats=2, seed=9)
        model = fit_polynomial(dataset.signals, dataset.forces, report.selected_order)
        path = tmp_path / "model.json"
        save_model(path, model, report)
        payload = json.loads(path.read_text())
        assert payload["fit"]["seed"] == 9
        assert payload["fit"]["repeats"] == 2
        assert payload["fit"]["selected_order"] == report.selected_order
        assert payload["signal_units"] == "volts"

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParseError):
            load_model(path)

    def test_inconsistent_order_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "tactsim-model-v1",
            "order": 3,
            "coefficients": [0.0, 1.0],
            "signal_units": "volts",
        }))
        with pytest.raises(ParseError):
            load_model(path)


class TestDatasetFiles:
    def test_round_trip_with_weights(self, tmp_path):
        path = tmp_path / "data.csv"
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.02, seed=1)
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.signals, dataset.signals)
        assert np.array_equal(loaded.forces, dataset.forces)
        assert np.array_equal(loaded.weights_gw, dataset.weights_gw)

    def test_two_column_form(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,force_n\n1.0,0.1\n2.0,0.2\n")
        loaded = load_dataset(path)
        assert loaded.signals.tolist() == [1.0, 2.0]
        assert loaded.weights_gw is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("volts,newtons\n1.0,0.1\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_bad_field_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,force_n\n1.0,0.1\noops,0.2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)
