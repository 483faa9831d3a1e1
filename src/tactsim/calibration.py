"""Voltage-to-force calibration by polynomial least squares.

The workflow mirrors the bench procedure for the reference sensor: 100
measurements taken with a 12-weight calibration set, shuffled into five
folds, and fitted with polynomials of order 1 through 5. Each candidate
order is scored by its mean testing RMSE over repeated reshuffles and
the best order wins. Models carry an intercept (order n has n+1
coefficients) and a signal-units tag so a model trained on one signal
scale cannot silently be applied to another.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from .errors import (
    DataError, FitError, ParseError, SingularFitError, UnderdeterminedFitError, UsageError,
)
from .streams import open_input, read_table
from .units import gw_to_newtons, rmse


@dataclass(frozen=True)
class PolynomialModel:
    """Force-from-signal model: f(v) = a0 + a1 v + ... + an v^n."""

    coefficients: tuple
    signal_units: str = "volts"

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValueError("model needs at least order 1 (two coefficients)")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("model coefficients must be finite")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


#: Factory calibration presets for the reference sensor build, orders 1-5.
#: Their signal scale predates this toolkit's volt convention, hence the
#: "legacy" units tag.
PRESET_MODELS = {
    1: PolynomialModel((-0.0650, 0.0889), "legacy"),
    2: PolynomialModel((-0.0301, 0.0737, 0.0012), "legacy"),
    3: PolynomialModel((0.0653, -0.0047, 0.0169, -0.000863), "legacy"),
    4: PolynomialModel((0.0924, -0.0405, 0.0295, -0.0025, 0.0000675), "legacy"),
    5: PolynomialModel(
        (0.0603, 0.0189, -0.0015, 0.0041, -0.000539, 0.00002), "legacy"
    ),
}


def evaluate_model(model: PolynomialModel, v):
    """Evaluate the polynomial at ``v`` (scalar or array) by Horner's rule."""
    if isinstance(v, (int, float)):
        finite = math.isfinite(v)
    else:
        import numpy as np
        finite = np.all(np.isfinite(v))
    if not finite:
        raise ValueError("signal value must be finite")
    result = 0.0
    for c in reversed(model.coefficients):
        result = result * v + c
    return result


def protocol_weights():
    """The bench weight protocol: ``(gram_weight, repetitions)`` pairs.

    Twelve weights; most are measured eight times, 20 and 100 gw nine
    times, and 50 gw ten times, for 100 samples total.
    """
    counts = {20: 9, 50: 10, 100: 9}
    weights = (5, 10, 20, 25, 35, 45, 50, 55, 65, 75, 85, 100)
    return [(w, counts.get(w, 8)) for w in weights]


def protocol_forces():
    """The 100 protocol forces in newtons, expanded and in weight order."""
    return [
        gw_to_newtons(w) for w, count in protocol_weights() for _ in range(count)
    ]


def build_design_matrix(signals, order: int) -> np.ndarray:
    """Vandermonde matrix with rows [1, v, v^2, ..., v^order].

    Valid for any number of rows; whether the system is solvable is the
    fit's concern, except that a power overflowing a float is a fit failure.
    """
    import numpy as np
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 1:
        raise ValueError("signals must be one-dimensional")
    if order < 1:
        raise ValueError("order must be at least 1")
    with np.errstate(over="ignore"):
        design = np.vander(signals, order + 1, increasing=True)
    if not np.isfinite(design).all():  # a signal that is not finite, or a power that overflows
        if not np.isfinite(signals).all():
            raise ValueError("signals must be finite")
        raise SingularFitError(f"signals too large for an order-{order} fit: v^{order} overflows")
    return design


def least_squares_fit(design: np.ndarray, forces) -> np.ndarray:
    """Coefficients minimizing ||design @ x - forces||_2.

    Solved through an orthogonal factorization rather than the normal
    equations, which keeps high-order Vandermonde systems stable. The
    returned solution satisfies the normal equations: the residual is
    orthogonal to every column of the design matrix.
    """
    import numpy as np
    design = np.asarray(design, dtype=float)
    forces = np.asarray(forces, dtype=float)
    m, cols = design.shape
    order = cols - 1
    if forces.shape != (m,):
        raise UsageError(
            f"force vector length {forces.shape} does not match {m} design rows"
        )
    if m < cols:
        raise UnderdeterminedFitError(
            f"order-{order} fit needs at least {cols} samples, got {m}"
        )
    solution, _, rank, _ = np.linalg.lstsq(design, forces, rcond=None)
    if rank < cols:
        raise SingularFitError(
            f"design matrix rank {rank} < {cols}: too few distinct signals "
            f"for an order-{order} fit"
        )
    return solution


def fit_polynomial(signals, forces, order: int, signal_units: str = "volts") -> PolynomialModel:
    """Convenience wrapper: design matrix + least squares -> model."""
    design = build_design_matrix(signals, order)
    coeffs = least_squares_fit(design, forces)
    try:
        return PolynomialModel(tuple(coeffs), signal_units)
    except ValueError as exc:  # coefficients past the float range
        raise FitError(f"order-{order} fit overflows: {exc}") from exc


@dataclass
class CalibrationDataset:
    """(signal, true force) pairs, optionally with source weights."""

    signals: np.ndarray
    forces: np.ndarray
    weights_gw: np.ndarray = None

    def __post_init__(self):
        import numpy as np
        self.signals = np.asarray(self.signals, dtype=float)
        self.forces = np.asarray(self.forces, dtype=float)
        if self.signals.shape != self.forces.shape or self.signals.ndim != 1:
            raise ValueError("signals and forces must be equal-length vectors")
        if self.weights_gw is not None:
            self.weights_gw = np.asarray(self.weights_gw, dtype=float)
            if self.weights_gw.shape != self.signals.shape:
                raise ValueError("weights_gw must match the sample count")

    def __len__(self) -> int:
        return self.signals.size


def kfold_split(dataset, k: int = 5, seed=0) -> np.ndarray:
    """Assign each sample a fold id in [0, k), balanced to within one.

    The shuffle is deterministic for a given seed. ``dataset`` may be
    anything with a length.
    """
    if k < 2:
        raise UsageError(f"k-fold split needs k >= 2, got {k}")
    n = len(dataset)
    if n < k:
        raise DataError(f"cannot split {n} samples into {k} folds")
    import numpy as np
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.empty(n, dtype=int)
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        folds[order[start:start + size]] = fold
        start += size
    return folds


@dataclass
class FitReport:
    """Cross-validation summary: per-order mean RMSEs and the winner."""

    orders: tuple
    train_rmse: tuple
    test_rmse: tuple
    selected_order: int
    repeats: int
    k: int = 5
    seed: int = 0
    strict_paper: bool = False

    def selected_test_rmse(self) -> float:
        return self.test_rmse[self.orders.index(self.selected_order)]

    def table(self) -> str:
        """Per-order error table as deterministic CSV-style text."""
        lines = ["order,mean_train_rmse_n,mean_test_rmse_n"]
        for order, train, test in zip(self.orders, self.train_rmse, self.test_rmse):
            lines.append(f"{order},{train!r},{test!r}")
        lines.append(f"selected_order,{self.selected_order}")
        return "\n".join(lines)


def cross_validate(dataset: CalibrationDataset, orders=(1, 2, 3, 4, 5), k: int = 5,
                   repeats: int = 20, seed: int = 0,
                   strict_paper: bool = False) -> FitReport:
    """Score polynomial orders by k-fold cross-validation.

    Each repeat reshuffles the data into ``k`` folds and rotates every
    fold through the test position, fitting on the remainder; the
    reported numbers are means over all repeats and rotations, and the
    selected order minimizes the mean testing RMSE. ``strict_paper``
    restricts each repeat to testing on fold 0 only, matching the
    original bench procedure instead of averaging all rotations.

    Fitting failures on any fold abort the whole run.
    """
    import numpy as np
    orders = tuple(orders)
    if not orders:
        raise UsageError("cross_validate needs at least one order")
    if repeats < 1:
        raise UsageError("cross_validate needs at least one repeat")
    signals = dataset.signals
    forces = dataset.forces
    train_sums = {order: 0.0 for order in orders}
    test_sums = {order: 0.0 for order in orders}
    test_folds = (0,) if strict_paper else range(k)
    evaluations = repeats * len(test_folds)
    for repeat in range(repeats):
        folds = kfold_split(dataset, k=k, seed=[seed, repeat])
        for fold in test_folds:
            test_mask = folds == fold
            v_train, f_train = signals[~test_mask], forces[~test_mask]
            v_test, f_test = signals[test_mask], forces[test_mask]
            # rmse on Python floats: the same result as on numpy scalars, faster.
            truth_train, truth_test = f_train.tolist(), f_test.tolist()
            for order in orders:
                try:
                    model = fit_polynomial(v_train, f_train, order)
                except FitError as exc:
                    raise type(exc)(f"repeat {repeat}, test fold {fold}: {exc}") from exc
                with np.errstate(over="ignore", invalid="ignore"):  # overflows score inf or nan
                    train_sums[order] += rmse(evaluate_model(model, v_train).tolist(), truth_train)
                    test_sums[order] += rmse(evaluate_model(model, v_test).tolist(), truth_test)
    train_means = tuple(train_sums[o] / evaluations for o in orders)
    test_means = tuple(test_sums[o] / evaluations for o in orders)
    selected = orders[int(np.argmin(test_means))]
    return FitReport(
        orders=orders,
        train_rmse=train_means,
        test_rmse=test_means,
        selected_order=selected,
        repeats=repeats,
        k=k,
        seed=seed,
        strict_paper=strict_paper,
    )


def invert_model(model: PolynomialModel, force: float, v_max: float = 50.0) -> float:
    """Smallest non-negative signal at which the model reads ``force``.

    Linear models invert exactly. Higher orders take the smallest real
    root of ``model - force`` on [0, v_max], polished by Newton steps on
    the model; fitted polynomials need not be monotone, and forces
    outside the model's reach are an error.
    """
    import numpy as np
    if model.order == 1:
        a0, a1 = model.coefficients
        if a1 == 0:
            raise ValueError("cannot invert a flat linear model")
        return (force - a0) / a1
    if evaluate_model(model, 0.0) == force:
        return 0.0
    a0, *rest = model.coefficients
    terms = [a0 - force, *rest]
    # Leading terms too small to move the model by a rounding error on
    # the range only add huge, ill-conditioned roots.
    sizes = [abs(c) * v_max ** k for k, c in enumerate(terms)]
    while len(terms) > 1 and sizes[len(terms) - 1] <= np.finfo(float).eps * sum(sizes):
        terms.pop()
    poly = np.array(terms[::-1])
    roots = np.roots(poly)
    # A root at an end of the range may round to just outside it.
    slack = 1e-9 * v_max
    reached = [v for v in roots[np.isreal(roots)].real.tolist() if -slack <= v <= v_max + slack]
    if not reached:
        raise ValueError(
            f"force {force} N is not reached by the model on signal range [0, {v_max}]"
        )
    # Eigenvalue roots lose digits when the terms span many magnitudes.
    v, slope = min(reached), np.polyder(poly)
    for _ in range(3):
        d = float(np.polyval(slope, v))
        if d == 0:
            break
        v -= (evaluate_model(model, v) - force) / d
    return min(max(v, 0.0), v_max)


def synthetic_protocol_dataset(model: PolynomialModel, noise_sigma: float = 0.0,
                               seed: int = 0) -> CalibrationDataset:
    """Regenerate a bench-protocol dataset from a known model.

    Signals are placed exactly where the model maps them onto the
    protocol forces; the recorded force readings optionally carry
    additive Gaussian noise of scale ``noise_sigma`` newtons. A model
    that does not reach some protocol force on [0, 50] raises
    ValueError naming the first such force, in protocol order.
    """
    import numpy as np
    forces_true = np.array(protocol_forces())
    signals = np.array([invert_model(model, f) for f in forces_true])
    rng = np.random.default_rng(seed)
    observed = forces_true + noise_sigma * rng.standard_normal(forces_true.size)
    weights, counts = zip(*protocol_weights())
    weights_gw = np.repeat(np.array(weights, float), counts)
    return CalibrationDataset(signals, observed, weights_gw=weights_gw)


DATASET_HEADERS = (("v", "force_n"), ("v", "force_n", "weight_gw"))


def load_dataset(path) -> CalibrationDataset:
    """Read a dataset CSV: ``v,force_n`` with an optional ``weight_gw``."""
    import numpy as np
    rows = []
    for line_number, row in read_table(path, DATASET_HEADERS):
        try:
            values = [float(f) for f in row]
        except ValueError as exc:
            raise ParseError(str(exc), line_number) from exc
        if not all(math.isfinite(v) for v in values):
            raise ParseError("dataset fields must be finite", line_number)
        rows.append(values)
    if not rows:
        raise ParseError(f"dataset {path} has no samples")
    return CalibrationDataset(*(np.array(column) for column in zip(*rows)))


def save_dataset(path, dataset: CalibrationDataset) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if dataset.weights_gw is not None:
            writer.writerow(DATASET_HEADERS[1])
            rows = zip(dataset.signals, dataset.forces, dataset.weights_gw)
            for v, f, w in rows:
                writer.writerow([repr(float(v)), repr(float(f)), repr(float(w))])
        else:
            writer.writerow(DATASET_HEADERS[0])
            for v, f in zip(dataset.signals, dataset.forces):
                writer.writerow([repr(float(v)), repr(float(f))])


MODEL_FORMAT = "tactsim-model-v1"


def save_model(path, model: PolynomialModel, report: FitReport = None) -> None:
    """Persist a model as JSON with full-precision coefficients."""
    payload = {
        "format": MODEL_FORMAT,
        "order": model.order,
        "coefficients": list(model.coefficients),
        "signal_units": model.signal_units,
    }
    if report is not None:
        payload["fit"] = {
            "seed": report.seed,
            "repeats": report.repeats,
            "k": report.k,
            "strict_paper": report.strict_paper,
            "orders": list(report.orders),
            "train_rmse": list(report.train_rmse),
            "test_rmse": list(report.test_rmse),
            "selected_order": report.selected_order,
        }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_model(path) -> PolynomialModel:
    with open_input(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"model file {path}: not a JSON object")
    if payload.get("format") != MODEL_FORMAT:
        raise ParseError(f"model file {path}: unknown format {payload.get('format')!r}")
    try:
        model = PolynomialModel(
            tuple(payload["coefficients"]), payload.get("signal_units", "volts")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"model file {path}: {exc}") from exc
    order = payload.get("order")
    if type(order) is not int:  # a JSON integer; true and 1.0 are not
        raise ParseError(
            f"model file {path}: order must be an integer, got {json.dumps(order)}"
        )
    if order != model.order:
        raise ParseError(
            f"model file {path}: order {order} does not match "
            f"{len(model.coefficients)} coefficients"
        )
    return model
