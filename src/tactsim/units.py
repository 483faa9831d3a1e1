"""Physical unit conventions and shared error metrics.

Quantities are plain 64-bit floats with fixed units:

- force: newtons (N)
- calibration weights: gram-weight (gw), with g = 9.8 m/s^2 so that
  100 gw is exactly 0.98 N
- voltage: volts (V)
- resistance: ohms
- time: seconds

Applied loads and weights must be non-negative; resistances of physical
resistors must be positive. Functions below validate the preconditions
they state and otherwise trust their callers.
"""

import math
from itertools import chain, repeat

from .errors import UsageError

#: Newtons per gram-weight under g = 9.8 m/s^2.
NEWTONS_PER_GW = 0.0098


def gw_to_newtons(weight_gw: float) -> float:
    """Convert a calibration weight in gram-weight to newtons."""
    if weight_gw < 0:
        raise ValueError(f"weight must be non-negative, got {weight_gw} gw")
    return weight_gw * NEWTONS_PER_GW


def rmse(predicted, truth) -> float:
    """Root-mean-square error between two equal-length force sequences.

    Uses an exactly rounded sum so the result does not depend on the
    order of the samples. The values are taken as Python floats, so a
    numpy array gives the same result as its ``tolist()``, and a sum of
    squares too large for a float gives ``inf`` without a warning (``nan``
    if a difference is ``nan``).
    """
    predicted = list(map(float, predicted))
    truth = list(map(float, truth))
    if len(predicted) != len(truth):
        raise UsageError(
            f"rmse needs equal-length sequences, got {len(predicted)} and {len(truth)}"
        )
    if not predicted:
        raise UsageError("rmse of empty sequences is undefined")
    try:
        total = math.fsum((p - t) ** 2 for p, t in zip(predicted, truth))
    except OverflowError:
        # A square or fsum's running sum passed the largest float. The sum
        # is inf then, or nan if a difference is nan, as it is without one.
        nan = any(math.isnan(p - t) for p, t in zip(predicted, truth))
        total = math.nan if nan else math.inf
    return math.sqrt(total / len(predicted))


def fsum_counted(pairs) -> float:
    """``math.fsum`` of each ``(term, count)`` pair's term, repeated count times.

    Made for non-negative terms, such as squared errors, whose sum does
    not depend on their order. The pairs are read lazily and always to
    the end, and only fsum's partial sums are kept, so a sum over a
    stream costs constant memory. A sum past the largest float is
    ``inf``, where fsum raises OverflowError.
    """
    terms = chain.from_iterable(repeat(term, count) for term, count in pairs)
    try:
        return math.fsum(terms)
    except OverflowError:
        for _ in terms:
            pass
        return math.inf
