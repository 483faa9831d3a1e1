"""End-to-end runs: scenario simulation, stream estimation, summaries.

Everything here streams: simulation and estimation are generators, so a
replay never holds more than one block of ticks in memory regardless of
length. All randomness comes from one seeded generator that draws
exactly five amplifier-noise samples per tick in channel order, which
makes every run byte-reproducible.
"""

import math
from itertools import islice

import numpy as np

from .bridge import sample_chain
from .calibration import CalibrationDataset, protocol_weights
from .config import ToolkitConfig, channel_signal
from .errors import DataError, StreamError, UsageError
from .estimator import PATTERNS, EstimatorConfig, StreamState, advance, estimate_force
from .estimator import process_frame  # noqa: F401  the per-signal step; bench/spans.py traces it here
from .sensor import LoadScenario, apply_load, fabric_delta_r
from .streams import SampleLine
from .units import gw_to_newtons, rmse

#: Ticks simulated per numpy block; a replay holds at most one block.
BLOCK_TICKS = 1024


def sample_times(adc_rate: float, end_time: float):
    """Tick times k/rate from zero through the end of a scenario."""
    last = int(math.floor(end_time * adc_rate + 1e-9))
    return (k / adc_rate for k in range(last + 1))


def _step_deltas(cfg: ToolkitConfig, scenario: LoadScenario) -> np.ndarray:
    """Sensing-arm rise of each channel, fabric first, for every step.

    One row per scenario step: the load is held between steps, so these
    rows are all the resistance states a simulation can visit.
    """
    rows = []
    for step in scenario.steps:
        fabric, elements = apply_load(scenario, cfg.fabric, cfg.elements, step.time)
        rows.append([fabric, *(r - e.rest_resistance for r, e in zip(elements, cfg.elements))])
    return np.array(rows)


def simulate_samples(cfg: ToolkitConfig, scenario: LoadScenario, seed=None):
    """ADC sample stream for a load scenario: a lazy iterator of SampleLine.

    The sample clock starts at t = 0, so scenarios must start there. The
    scenario and the bridges are checked when this is called, before
    any sample is produced; ticks are then computed one block at a time.
    """
    if scenario.start_time > 0:
        raise ValueError(
            f"scenario starts at {scenario.start_time} s, after the sample clock's t = 0"
        )
    chain = cfg.sensing_chain()
    deltas = _step_deltas(cfg, scenario)
    step_times = np.array(scenario.step_times)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    clock = sample_times(cfg.adc.sample_rate, scenario.end_time)

    def blocks():
        while (times := np.fromiter(islice(clock, BLOCK_TICKS), dtype=float)).size:
            rows = np.searchsorted(step_times, times, side="right") - 1
            noise = rng.uniform(-1.0, 1.0, size=(times.size, chain.channels))
            codes = chain.codes(deltas[rows], noise)
            for t, row in zip(times.tolist(), codes.tolist()):
                yield SampleLine(t, tuple(row))

    return blocks()


def capture_protocol_dataset(cfg: ToolkitConfig, seed=None, weights=None) -> CalibrationDataset:
    """Run the bench weight protocol through the simulated chain.

    Each calibration weight is pressed repeatedly onto the pad and the
    force-layer signal recorded against the known force, yielding the
    dataset a real calibration session would produce.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    if weights is None:
        weights = protocol_weights()
    signals, forces, weights_gw = [], [], []
    for weight, count in weights:
        force = gw_to_newtons(weight)
        delta = fabric_delta_r(cfg.fabric, force)
        for _ in range(count):
            code = sample_chain(cfg.bridge, cfg.adc, delta, rng.uniform(-1.0, 1.0))
            signals.append(channel_signal(cfg, code))
            forces.append(force)
            weights_gw.append(float(weight))
    return CalibrationDataset(
        np.array(signals), np.array(forces), weights_gw=np.array(weights_gw)
    )


class CodeTables:
    """Estimator inputs per ADC code, computed once for each code seen.

    A replay feeds the estimator ADC codes, and an N-bit ADC has only
    2^N of them, so the model, the clamp and the element thresholds are
    evaluated once per distinct code, from the same scalar definitions a
    per-signal replay uses, and then looked up. The tables fill on first
    sight of a code, so they stay as small as the set of codes a stream
    uses, whatever the ADC width.
    """

    def __init__(self, cfg: ToolkitConfig, est_cfg: EstimatorConfig):
        self.cfg = cfg
        self.est_cfg = est_cfg
        self.force = {}
        self.on = tuple({} for _ in est_cfg.element_thresholds)

    def learn(self, channels, where: str) -> None:
        """Add the codes of one sample, in channel order, checking each."""
        est_cfg, max_code = self.est_cfg, self.cfg.adc.max_code
        for channel, value in enumerate(channels):
            code = int(round(value))
            if code != value:
                raise DataError(f"{where}: channel value {value!r} is not an ADC code")
            if not 0 <= code <= max_code:
                raise DataError(f"{where}: code {code} outside [0, {max_code}]")
            signal = channel_signal(self.cfg, code)
            if channel == 0:
                self.force[code] = estimate_force(est_cfg, signal)
            else:
                self.on[channel - 1][code] = signal >= est_cfg.element_thresholds[channel - 1]


def estimate_frames(cfg: ToolkitConfig, est_cfg: EstimatorConfig, samples):
    """Yield one EstimateFrame per sample, lazily.

    Per tick this is five table lookups and one ``advance`` of the
    stream; see ``CodeTables``.
    """
    tables = CodeTables(cfg, est_cfg)
    force, (on1, on2, on3, on4) = tables.force, tables.on
    state = StreamState(est_cfg.filter_window)
    for ordinal, sample in enumerate(samples, start=1):
        c0, c1, c2, c3, c4 = sample.channels
        try:
            raw, on = force[c0], (on1[c1], on2[c2], on3[c3], on4[c4])
        except KeyError:
            tables.learn(sample.channels, _where(sample, ordinal))
            raw, on = force[c0], (on1[c1], on2[c2], on3[c3], on4[c4])
        try:
            frame = advance(state, sample.time, raw, on)
        except StreamError as exc:
            raise StreamError(f"{_where(sample, ordinal)}: {exc}") from exc
        yield frame


def _where(sample: SampleLine, ordinal: int) -> str:
    if sample.line_number is not None:
        return f"line {sample.line_number}"
    return f"sample {ordinal}"


def summarize_frames(frames, sensing_range: float, truth: LoadScenario = None) -> str:
    """Deterministic plain-text summary of a frame stream.

    Reports frame and saturation counts, per-element duty cycles, and
    pattern counts; with a ground-truth scenario it also reports the
    RMSE of the filtered force against the scenario force.
    """
    count = 0
    t_first = t_last = None
    saturated = 0
    on_counts = [0, 0, 0, 0]
    pattern_counts = dict.fromkeys(PATTERNS, 0)
    estimates, true_forces = [], []
    for frame in frames:
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
            true_forces.append(truth.at(frame.time)[0])
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
