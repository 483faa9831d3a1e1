"""Runtime pipeline: sampled signals to filtered force and contact state.

Per tick the estimator converts the force-layer signal to newtons with
the calibration model, clamps it to the configured sensing range,
smooths it with an equal-weight moving average, and thresholds the four
element signals into on/off contact states with a count-based pattern
label. The model runs before the filter, matching the firmware order.
"""

import math
import sys
from collections import deque
from dataclasses import dataclass

from .calibration import PolynomialModel, evaluate_model
from .errors import ParseError, StreamError, UsageError

#: Contact-pattern labels, in report order.
PATTERNS = ("none", "point", "line", "area")

#: Pattern label by number of active elements. A 2x2 grid cannot tell a
#: diagonal pair from an edge pair, so any two contacts read as a line.
_PATTERNS_BY_COUNT = (*PATTERNS, "area")

#: (sensing range N, resolution N) for the published amplifier gains.
RANGE_TABLE = {22.0: (1.5, 0.1), 41.36: (1.0, 0.05)}


@dataclass(frozen=True)
class EstimatorConfig:
    """Per-deployment estimator settings.

    ``element_thresholds`` are signal levels (same units as the incoming
    samples), not forces; see ``config.element_signal_thresholds`` for
    the conversion through the simulated element chain.
    """

    model: PolynomialModel
    element_thresholds: tuple
    sensing_range: float
    resolution: float
    filter_window: int = 4

    def __post_init__(self):
        if self.filter_window < 1:
            raise ValueError("filter window must be at least 1")
        if self.filter_window > sys.maxsize:
            raise ValueError(f"filter window must be at most {sys.maxsize}")
        if self.sensing_range <= 0:
            raise ValueError("sensing range must be positive")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if len(self.element_thresholds) != 4:
            raise ValueError("need one threshold per element (4)")
        if any(t <= 0 for t in self.element_thresholds):
            raise ValueError("element thresholds must be positive")


@dataclass(frozen=True)
class EstimateFrame:
    """One output tick of the estimator."""

    time: float
    raw_force: float
    filtered_force: float
    element_state: tuple
    pattern: str


class StreamState:
    """Mutable context owned by one stream consumer.

    Holds the filter window and the sample clock.
    """

    def __init__(self, filter_window: int):
        self.window = deque(maxlen=filter_window)
        self.last_time = None


def range_for_gain(gain: float):
    """(sensing range, resolution) in newtons for an amplifier gain.

    The published gains return their measured table entries exactly;
    other gains interpolate linearly in 1/gain, which preserves the
    trade-off direction: more gain means finer resolution over a
    shorter range.
    """
    if gain <= 0:
        raise ValueError("gain must be positive")
    for preset, entry in RANGE_TABLE.items():
        if math.isclose(gain, preset, rel_tol=1e-12):
            return entry
    (g_lo, (range_lo, res_lo)), (g_hi, (range_hi, res_hi)) = sorted(RANGE_TABLE.items())
    u = 1.0 / gain
    u_lo, u_hi = 1.0 / g_lo, 1.0 / g_hi
    t = (u - u_hi) / (u_lo - u_hi)
    return (range_hi + t * (range_lo - range_hi), res_hi + t * (res_lo - res_hi))


def moving_average(window) -> float:
    """Equal-weight mean of the samples currently in the window.

    Exact for a window of identical values, so a settled step reads
    back bit-for-bit.
    """
    if not window:
        raise UsageError("moving average of an empty window")
    first = window[0]
    if window.count(first) == len(window):
        return first
    return math.fsum(window) / len(window)


def estimate_force(cfg: EstimatorConfig, signal: float) -> float:
    """Model force for one force-layer signal, clamped to [0, range]."""
    force = evaluate_model(cfg.model, signal)
    return min(max(force, 0.0), cfg.sensing_range)


def detect_contacts(signals, thresholds):
    """Per-element on/off: on when the signal meets its threshold."""
    if len(signals) != len(thresholds):
        raise ValueError("one signal per threshold required")
    return tuple(s >= t for s, t in zip(signals, thresholds))


def classify_pattern(states) -> str:
    """Contact-pattern label from the number of active elements.

    One contact suggests a point (sphere-like) touch, two a line
    (cylinder-like) touch, more an area.
    """
    if len(states) != 4:
        raise ValueError("pattern classification needs 4 element states")
    return _PATTERNS_BY_COUNT[sum(bool(s) for s in states)]


def process_frame(cfg: EstimatorConfig, state: StreamState, signals, time: float) -> EstimateFrame:
    """Advance the stream by one 5-channel sample.

    Channel 0 is the force layer, channels 1-4 the position elements.
    Timestamps must be strictly increasing.
    """
    if len(signals) != 5:
        raise ValueError(f"expected 5 channels, got {len(signals)}")
    raw = estimate_force(cfg, signals[0])
    on = detect_contacts(signals[1:], cfg.element_thresholds)
    return EstimateFrame(time, raw, advance(state, time, raw), on, _PATTERNS_BY_COUNT[sum(on)])


def advance(state: StreamState, time: float, raw: float) -> float:
    """One step of the stream: clock check, then the filtered force.

    ``raw`` is the clamped force of the tick. Every replay steps the
    stream through here: ``process_frame`` and the code-indexed
    ``pipeline.estimate_frames`` and ``pipeline.estimate_lines``.
    """
    last = state.last_time
    if last is not None and time <= last:
        raise StreamError(f"timestamp {time} s does not advance past {last} s")
    state.window.append(raw)
    state.last_time = time
    return moving_average(state.window)


def frame_tail(states, pattern: str) -> str:
    """The ``e1,e2,e3,e4,pattern`` end of a frame record line."""
    return ",".join("1" if s else "0" for s in states) + "," + pattern


def format_frame(frame: EstimateFrame) -> str:
    """Frame record line: ``t,raw_n,filtered_n,e1,e2,e3,e4,pattern``."""
    tail = frame_tail(frame.element_state, frame.pattern)
    return f"{frame.time!r},{frame.raw_force!r},{frame.filtered_force!r},{tail}"


def parse_frame(line: str, line_number=None) -> EstimateFrame:
    fields = [f.strip() for f in line.strip().split(",")]
    if len(fields) != 8:
        raise ParseError(f"expected 8 fields, got {len(fields)}", line_number)
    try:
        time, raw, filtered = (float(fields[i]) for i in range(3))
        states = tuple(_parse_state(f, line_number) for f in fields[3:7])
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from exc
    if not all(math.isfinite(v) for v in (time, raw, filtered)):
        raise ParseError("frame fields must be finite", line_number)
    if time < 0:
        raise ParseError("frame time must be non-negative", line_number)
    pattern = fields[7]
    if pattern not in PATTERNS:
        raise ParseError(f"unknown pattern {pattern!r}", line_number)
    return EstimateFrame(time, raw, filtered, states, pattern)


def _parse_state(field: str, line_number) -> bool:
    if field not in ("0", "1"):
        raise ValueError(f"element state must be 0 or 1, got {field!r}")
    return field == "1"
