"""End-to-end runs: scenario simulation, stream estimation, summaries.

Everything here streams: simulation and estimation work one block of
``BLOCK_TICKS`` ticks or lines at a time, so a replay never holds more
than one block in memory regardless of length. All randomness comes from
one seeded generator that draws exactly five amplifier-noise samples per
tick in channel order, which makes every run byte-reproducible.
"""

from __future__ import annotations

import math
from itertools import islice, product

from .bridge import Chain
from .bridge import sample_chain  # noqa: F401  the per-sample chain; bench/spans.py traces it here
from .calibration import CalibrationDataset, protocol_weights
from .config import ToolkitConfig, channel_signal
from .errors import DataError, ParseError, StreamError, UsageError
from .estimator import (
    PATTERNS, EstimateFrame, EstimatorConfig, StreamState, advance, classify_pattern,
    estimate_force, format_frame, frame_tail, parse_frame,
)
from .estimator import process_frame  # noqa: F401  imported only for bench/spans.py to trace
from .sensor import LoadScenario, apply_load, fabric_delta_r
from .streams import SampleLine, parse_sample_line
from .units import gw_to_newtons, rmse

#: Ticks per block, simulated or read and written; a replay holds at most one block.
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
    import numpy as np
    rows = []
    for step in scenario.steps:
        fabric, elements = apply_load(scenario, cfg.fabric, cfg.elements, step.time)
        rows.append([fabric, *(r - e.rest_resistance for r, e in zip(elements, cfg.elements))])
    return np.array(rows)


def simulate_blocks(cfg: ToolkitConfig, scenario: LoadScenario, seed=None):
    """ADC sample stream for a load scenario, one block of ticks at a time.

    A lazy iterator of ``(times, codes)`` pairs of lists: up to
    ``BLOCK_TICKS`` float tick times and, for each, its five int ADC
    codes. The sample clock starts at t = 0, so scenarios must start
    there. The scenario and the bridges are checked when this is called,
    before any sample is produced.
    """
    import numpy as np
    if scenario.start_time > 0:
        raise DataError(
            f"scenario starts at {scenario.start_time} s, after the sample clock's t = 0"
        )
    chain = cfg.sensing_chain()
    deltas = _step_deltas(cfg, scenario)
    try:  # every state the run can visit, at the noise that drives each output highest
        chain.codes(deltas, np.ones(deltas.shape))
    except ValueError as exc:  # config values whose chain overflows
        raise DataError(str(exc)) from exc
    step_times = np.array(scenario.step_times)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    clock = sample_times(cfg.adc.sample_rate, scenario.end_time)

    def blocks():
        while (times := np.fromiter(islice(clock, BLOCK_TICKS), dtype=float)).size:
            rows = np.searchsorted(step_times, times, side="right") - 1
            noise = rng.uniform(-1.0, 1.0, size=(times.size, chain.channels))
            yield times.tolist(), chain.codes(deltas[rows], noise).tolist()

    return blocks()


def simulate_samples(cfg: ToolkitConfig, scenario: LoadScenario, seed=None):
    """ADC sample stream for a load scenario: a lazy iterator of SampleLine.

    The ticks of ``simulate_blocks``, checked the same way when this is
    called.
    """
    blocks = simulate_blocks(cfg, scenario, seed=seed)
    return (SampleLine(t, tuple(codes)) for times, rows in blocks
            for t, codes in zip(times, rows))


def capture_protocol_dataset(cfg: ToolkitConfig, seed=None, weights=None) -> CalibrationDataset:
    """Run the bench weight protocol through the simulated chain.

    Each calibration weight is pressed repeatedly onto the pad and the
    force-layer signal recorded against the known force, yielding the
    dataset a real calibration session would produce.
    """
    import numpy as np
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    if weights is None:
        weights = protocol_weights()
    weights_gw = [float(weight) for weight, count in weights for _ in range(count)]
    forces = [gw_to_newtons(weight) for weight in weights_gw]
    deltas = [[fabric_delta_r(cfg.fabric, force)] for force in forces]
    noise = rng.uniform(-1.0, 1.0, size=(len(forces), 1))
    codes = Chain((cfg.bridge,), cfg.adc).codes(deltas, noise)[:, 0].tolist()
    signals = [channel_signal(cfg, code) for code in codes]
    return CalibrationDataset(
        np.array(signals), np.array(forces), weights_gw=np.array(weights_gw)
    )


class CodeTables:
    """Estimator inputs per ADC code, computed once for each code seen.

    A replay feeds the estimator ADC codes, and an N-bit ADC has only
    2^N of them, so the model, the clamp and the element thresholds are
    evaluated once per distinct code, with the values ``process_frame``
    gives for that code's signal, and then looked up.

    ``text`` holds one table per channel, keyed by the canonical
    spelling of each code seen (``str(code)``), so a stream line can be
    looked up without converting its fields: channel 0 maps to the
    clamped force and its ``repr``, channels 1-4 to the element's on
    state. Other spellings of a code are never added, so the tables
    stay as small as the set of codes a stream uses, whatever the ADC
    width.
    """

    def __init__(self, cfg: ToolkitConfig, est_cfg: EstimatorConfig):
        self.cfg = cfg
        self.est_cfg = est_cfg
        self.text = ({}, {}, {}, {}, {})

    def learn(self, channels, where: str) -> list:
        """Check the channel values of one sample as ADC codes, then add them.

        Returns the sample's five table keys, in channel order.
        """
        max_code, codes, keys = self.cfg.adc.max_code, [], []
        for value in channels:
            code = int(round(value))
            if code != value:
                raise DataError(f"{where}: channel value {value!r} is not an ADC code")
            if not 0 <= code <= max_code:
                raise DataError(f"{where}: code {code} outside [0, {max_code}]")
            codes.append(code)
        for channel, code in enumerate(codes):
            key, table = str(code), self.text[channel]
            if key not in table:
                signal = channel_signal(self.cfg, code)
                if channel:
                    table[key] = signal >= self.est_cfg.element_thresholds[channel - 1]
                else:
                    try:
                        force = estimate_force(self.est_cfg, signal)
                    except ValueError as exc:  # a signal that overflows at this ADC scale
                        raise DataError(f"{where}: {exc}") from exc
                    table[key] = (force, repr(force))
            keys.append(key)
        return keys


#: Frame-record tail of each element on-state tuple.
_TAILS = {on: frame_tail(on, classify_pattern(on)) for on in product((False, True), repeat=4)}


def estimate_frames(cfg: ToolkitConfig, est_cfg: EstimatorConfig, samples):
    """Yield one EstimateFrame per sample, lazily.

    Each sample's codes are checked and looked up in ``CodeTables``, and
    its force stepped through ``advance``, as ``estimate_lines`` does for
    each line. An error names the sample's line, or else its ordinal.
    """
    tables = CodeTables(cfg, est_cfg)
    t0, *elements = tables.text
    state = StreamState(est_cfg.filter_window)
    for ordinal, sample in enumerate(samples, start=1):
        where = f"sample {ordinal}" if sample.line_number is None else f"line {sample.line_number}"
        c0, *keys = tables.learn(sample.channels, where)
        raw, on = t0[c0][0], tuple(table[key] for table, key in zip(elements, keys))
        try:
            filtered = advance(state, sample.time, raw)
        except StreamError as exc:
            raise StreamError(f"{where}: {exc}") from exc
        yield EstimateFrame(sample.time, raw, filtered, on, classify_pattern(on))


def estimate_lines(cfg: ToolkitConfig, est_cfg: EstimatorConfig, lines, out) -> None:
    """Replay sample stream lines and write their frame record lines to ``out``.

    Writes what ``format_frame`` gives for each frame of
    ``estimate_frames(cfg, est_cfg, read_samples(lines))``, reading and
    writing ``BLOCK_TICKS`` lines at a time, so memory stays constant
    however long the stream. A line of a time and five canonically
    spelled codes is split once and its fields looked up in
    ``CodeTables.text``; its time alone is converted. Any other line
    goes through ``parse_sample_line`` and ``CodeTables.learn``, which
    name the line in any error. The frames before a bad line are written
    before the error propagates.
    """
    tables = CodeTables(cfg, est_cfg)
    t0, t1, t2, t3, t4 = tables.text
    state = StreamState(est_cfg.filter_window)
    lines, number, inf = iter(lines), 0, math.inf
    while block := list(islice(lines, BLOCK_TICKS)):
        frames = []
        try:
            for line in block:
                number += 1
                try:
                    t, c0, c1, c2, c3, c4 = line.strip().split(",")
                    (raw, raw_text), on = t0[c0], (t1[c1], t2[c2], t3[c3], t4[c4])
                    time = float(t)
                    fast = 0.0 <= time < inf
                except (ValueError, KeyError):
                    fast = False
                if not fast:
                    text = line.strip()
                    if not text or text.startswith("#"):
                        continue
                    sample = parse_sample_line(text, number)
                    c0, c1, c2, c3, c4 = tables.learn(sample.channels, f"line {number}")
                    time = sample.time
                    (raw, raw_text), on = t0[c0], (t1[c1], t2[c2], t3[c3], t4[c4])
                try:
                    filtered = advance(state, time, raw)
                except StreamError as exc:
                    raise StreamError(f"line {number}: {exc}") from exc
                # A settled window returns its first force: often this tick's own.
                filtered_text = raw_text if filtered is raw else repr(filtered)
                frames.append(f"{time!r},{raw_text},{filtered_text},{_TAILS[on]}\n")
        finally:
            out.write("".join(frames))


def summarize_frames(frames, sensing_range: float, truth: LoadScenario = None) -> str:
    """``summarize_lines`` of the frame record lines of ``frames``.

    Frames are checked as ``report`` checks frame lines, so a frame that
    ``parse_frame`` would reject raises its ``ParseError``.
    """
    return summarize_lines(map(format_frame, frames), sensing_range, truth=truth)


def summarize_lines(lines, sensing_range: float, truth: LoadScenario = None) -> str:
    """Deterministic plain-text summary of frame record lines.

    Reports frame and saturation counts, per-element duty cycles, and
    pattern counts; with a ground-truth scenario it also reports the
    RMSE of the filtered force against the scenario force.

    A line whose ``e1,e2,e3,e4,pattern`` tail is spelled canonically is
    split once, its tail looked up in a table that ``parse_frame``
    fills, and its three numbers converted and checked as
    ``parse_frame`` checks them. Any other line goes through
    ``parse_frame``, which names the line in any error. Frames are
    counted per tail, and the counts become duty cycles and pattern
    counts at the end.
    """
    count = saturated = 0
    t_first = t_last = None
    tails, tally = {}, {}  # canonical tail -> (states, pattern); tail -> frames
    estimates, true_forces = [], []
    inf = math.inf
    for number, line in enumerate(lines, start=1):
        try:
            t, r, f, tail = line.strip().split(",", 3)
            time, raw, filtered = float(t), float(r), float(f)
            fast = (tail in tails and 0.0 <= time < inf
                    and -inf < raw < inf and -inf < filtered < inf)
        except ValueError:
            fast = False
        if not fast:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            frame = parse_frame(text, number)
            time, raw, filtered = frame.time, frame.raw_force, frame.filtered_force
            tail = frame_tail(frame.element_state, frame.pattern)
            tails[tail] = (frame.element_state, frame.pattern)
        if count == 0:
            t_first = time
        t_last = time
        count += 1
        if raw >= sensing_range:
            saturated += 1
        tally[tail] = tally.get(tail, 0) + 1
        if truth is not None:
            estimates.append(filtered)
            try:
                true_forces.append(truth.at(time)[0])
            except ValueError as exc:  # a frame before the scenario start
                raise ParseError(str(exc), number) from exc
    summary = [f"frames,{count}"]
    if count:
        on_counts = [0, 0, 0, 0]
        pattern_counts = dict.fromkeys(PATTERNS, 0)
        for tail, n in tally.items():
            states, pattern = tails[tail]
            for index, on in enumerate(states):
                on_counts[index] += n * on
            pattern_counts[pattern] += n
        summary += [f"t_first,{t_first!r}", f"t_last,{t_last!r}", f"saturated_frames,{saturated}"]
        summary += [f"duty_cycle_e{i},{on / count!r}" for i, on in enumerate(on_counts, start=1)]
        summary += [f"pattern_{label},{pattern_counts[label]}" for label in PATTERNS]
    if truth is not None:
        if not count:
            raise UsageError("cannot compute RMSE of an empty frame stream")
        summary.append(f"rmse_n,{rmse(estimates, true_forces)!r}")
    return "\n".join(summary)
