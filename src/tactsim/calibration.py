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

import math
from dataclasses import dataclass

from .errors import (
    DataError, FitError, ParseError, SingularFitError, UnderdeterminedFitError, UsageError,
)
from .streams import open_input, read_float, read_table, write_table
from .units import gw_to_newtons, rmse


@dataclass(frozen=True)
class PolynomialModel:
    """Force-from-signal model: f(v) = a0 + a1 v + ... + an v^n."""

    coefficients: tuple
    signal_units: str = "volts"

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValueError("model needs at least order 1 (two coefficients)")
        try:
            finite = all(map(math.isfinite, self.coefficients))
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
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
    return _horner(model.coefficients, v)


def _horner(coefficients, v):
    """a0 + a1 v + ... + an v^n for ``coefficients`` a0..an, from 0.0 by
    Horner's rule: the one evaluator of every model value."""
    result = 0.0
    for c in reversed(coefficients):
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


def expand_protocol(weights=None) -> list:
    """One float gram weight per measurement of ``(gram_weight, repetitions)``
    pairs, in order; by default those of ``protocol_weights()``."""
    if weights is None:
        weights = protocol_weights()
    return [float(weight) for weight, count in weights for _ in range(count)]


def protocol_forces():
    """The 100 protocol forces in newtons, expanded and in weight order."""
    return [gw_to_newtons(weight) for weight in expand_protocol()]


def build_design_matrix(signals, order: int) -> np.ndarray:
    """Vandermonde matrix with rows [1, v, v^2, ..., v^order].

    Valid for any number of rows; a power past the float range is ``inf``.
    Whether the system is solvable, that power included, is the fit's concern.
    """
    import numpy as np
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 1:
        raise ValueError("signals must be one-dimensional")
    if order < 1:
        raise ValueError("order must be at least 1")
    if not np.isfinite(signals).all():
        raise ValueError("signals must be finite")
    with np.errstate(over="ignore"):
        return np.vander(signals, order + 1, increasing=True)


def least_squares_fit(design: np.ndarray, forces) -> np.ndarray:
    """Coefficients minimizing ||design @ x - forces||_2.

    Solved through an orthogonal factorization rather than the normal
    equations, which keeps high-order Vandermonde systems stable. The
    returned solution satisfies the normal equations: the residual is
    orthogonal to every column of the design matrix.

    ``design`` has the columns [1, v, ..., v^order]. Every fit failure is
    decided here, in this order: SingularFitError for a design entry past
    the float range (an overflowing power), UnderdeterminedFitError for
    fewer rows than columns, SingularFitError for a short rank (too few
    distinct signals, or ones too close together or too many magnitudes
    apart), and FitError for a non-finite solution.
    """
    import numpy as np
    design = np.asarray(design, dtype=float)
    forces = np.asarray(forces, dtype=float)
    m, cols = design.shape
    order = cols - 1
    if not np.isfinite(design).all():
        raise SingularFitError(f"signals too large for an order-{order} fit: v^{order} overflows")
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
        distinct = np.unique(design, axis=0).shape[0]  # rows, one per distinct signal
        cause = ("signals too close together or too many magnitudes apart" if distinct >= cols
                 else "too few distinct signals")
        raise SingularFitError(f"design matrix rank {rank} < {cols}: {cause} "
                               f"for an order-{order} fit")
    if not all(map(math.isfinite, solution.tolist())):
        raise FitError(f"order-{order} fit overflows: model coefficients must be finite")
    return solution


def fit_polynomial(signals, forces, order: int, signal_units: str = "volts") -> PolynomialModel:
    """Convenience wrapper: design matrix + least squares -> model."""
    design = build_design_matrix(signals, order)
    return PolynomialModel(tuple(least_squares_fit(design, forces)), signal_units)


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
    from .rng import Pcg64
    order = Pcg64(seed).permutation(n)
    folds = np.empty(n, dtype=int)
    base, extra = divmod(n, k)
    folds[order] = np.repeat(np.arange(k), [base + 1] * extra + [base] * (k - extra))
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

    ``build_design_matrix`` runs once, for the highest order: an order's
    training design is its training rows and leading columns. Each fold
    takes one pass: its orders are fitted in turn by ``least_squares_fit``,
    the one fit rule, and the first fit that fails aborts the whole run;
    then all its models are evaluated together by ``evaluate_model``'s
    Horner rule and scored by ``rmse``.
    """
    import numpy as np
    orders = tuple(orders)
    if not orders:
        raise UsageError("cross_validate needs at least one order")
    if min(orders) < 1:
        raise UsageError(f"cross_validate orders must be at least 1, got {list(orders)}")
    if len(set(orders)) < len(orders):
        raise UsageError(f"cross_validate orders must be distinct, got {list(orders)}")
    if repeats < 1:
        raise UsageError("cross_validate needs at least one repeat")
    signals = dataset.signals
    forces = dataset.forces
    powers = build_design_matrix(signals, max(orders))
    test_folds = (0,) if strict_paper else range(k)
    train_sums = [0.0] * len(orders)
    test_sums = [0.0] * len(orders)
    for repeat in range(repeats):
        folds = kfold_split(dataset, k=k, seed=[seed, repeat])
        for fold in test_folds:
            test = folds == fold
            train = ~test
            design, f_train = powers[train], forces[train]
            # One coefficient column per order, zero-padded to the top power:
            # leading zeros keep Horner's start value 0.0.
            coefficients = np.zeros((powers.shape[1], len(orders), 1))
            for i, order in enumerate(orders):
                try:
                    coefficients[:order + 1, i, 0] = least_squares_fit(
                        design[:, :order + 1], f_train)
                except FitError as exc:
                    raise type(exc)(f"repeat {repeat}, test fold {fold}: {exc}") from exc
            with np.errstate(over="ignore", invalid="ignore"):  # overflows score inf or nan
                values = _horner(coefficients, signals)
            # rmse on Python floats: the same result as on numpy scalars, faster.
            truth_train, truth_test = f_train.tolist(), forces[test].tolist()
            scored = zip(values.compress(train, axis=1).tolist(),
                         values.compress(test, axis=1).tolist())
            for i, (p_train, p_test) in enumerate(scored):
                train_sums[i] += rmse(p_train, truth_train)
                test_sums[i] += rmse(p_test, truth_test)
    evaluations = repeats * len(test_folds)
    train_means = tuple(total / evaluations for total in train_sums)
    test_means = tuple(total / evaluations for total in test_sums)
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
    roots = np.roots(terms[::-1])
    # A root at an end of the range may round to just outside it.
    slack = 1e-9 * v_max
    reached = [v for v in roots[np.isreal(roots)].real.tolist() if -slack <= v <= v_max + slack]
    if not reached:
        raise ValueError(
            f"force {force} N is not reached by the model on signal range [0, {v_max}]"
        )
    # Eigenvalue roots lose digits when the terms span many magnitudes.
    v, slope = min(reached), [k * c for k, c in enumerate(terms)][1:]
    for _ in range(3):
        d = _horner(slope, v)
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
    return CalibrationDataset(signals, observed, weights_gw=expand_protocol())


DATASET_HEADERS = (("v", "force_n"), ("v", "force_n", "weight_gw"))


def load_dataset(path) -> CalibrationDataset:
    """Read a dataset CSV: ``v,force_n`` with an optional ``weight_gw``."""
    import numpy as np
    rows = []
    for line_number, row in read_table(path, DATASET_HEADERS):
        try:
            values = [read_float(f) for f in row]
        except ValueError as exc:
            raise ParseError(str(exc), line_number) from exc
        if not all(math.isfinite(v) for v in values):
            raise ParseError("dataset fields must be finite", line_number)
        rows.append(values)
    if not rows:
        raise ParseError(f"dataset {path} has no samples")
    return CalibrationDataset(*(np.array(column) for column in zip(*rows)))


def save_dataset(path, dataset: CalibrationDataset) -> None:
    columns = (dataset.signals, dataset.forces, dataset.weights_gw)
    columns = [column.tolist() for column in columns if column is not None]
    write_table(path, DATASET_HEADERS[len(columns) - 2], (map(repr, row) for row in zip(*columns)))


MODEL_FORMAT = "tactsim-model-v1"


def _json_number(value: float):
    """``value``, or None (JSON ``null``) where it is not finite: JSON has no inf or nan."""
    return value if math.isfinite(value) else None


def save_model(path, model: PolynomialModel, report: FitReport = None) -> None:
    """Persist a model as standard JSON with full-precision coefficients.

    A cross-validation RMSE that is not finite is written as ``null``.
    """
    import json
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
            "train_rmse": [_json_number(value) for value in report.train_rmse],
            "test_rmse": [_json_number(value) for value in report.test_rmse],
            "selected_order": report.selected_order,
        }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")


def _read_int(digits: str) -> int:
    """A JSON integer, or a ValueError for one past ``int``'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"integer of {len(digits.lstrip('-'))} digits is too long to read")


def load_model(path) -> PolynomialModel:
    """Read a model file: a JSON object with ``order``, a JSON integer, and
    ``coefficients``, a list of JSON numbers (booleans are not numbers)."""
    import json
    with open_input(path) as handle:
        text = handle.read()
    try:
        payload = json.loads(text, parse_int=_read_int)
    except (ValueError, RecursionError) as exc:  # also an integer too long or nesting too deep
        raise ParseError(f"model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"model file {path}: not a JSON object")
    if payload.get("format") != MODEL_FORMAT:
        raise ParseError(f"model file {path}: unknown format {payload.get('format')!r}")
    coefficients = payload.get("coefficients")
    if not (isinstance(coefficients, list)
            and all(type(c) in (int, float) for c in coefficients)):
        raise ParseError(f"model file {path}: coefficients must be a list of JSON numbers")
    try:
        model = PolynomialModel(tuple(coefficients), payload.get("signal_units", "volts"))
    except ValueError as exc:
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
