"""End-to-end runs: scenario simulation, stream estimation, summaries.

Everything here streams: simulation, estimation and summaries work one
block of ``BLOCK_TICKS`` ticks or lines at a time, so a replay never
holds more than one block in memory regardless of length. All
randomness comes from one seeded generator that draws exactly five
amplifier-noise samples per tick in channel order, which makes every run
byte-reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import islice, product, repeat
from operator import le

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
from .units import fsum_counted, gw_to_newtons
from .units import rmse  # noqa: F401  imported only for bench/spans.py to trace

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

    Lines are read ``BLOCK_TICKS`` at a time and kept as counts only:
    frames per ``e1,e2,e3,e4,pattern`` tail, and with a scenario the
    squared error of each distinct pair of scenario step and filtered
    force, summed exactly by ``fsum_counted``. So memory stays constant
    however long the stream, and the RMSE is the exactly rounded one
    of ``rmse`` over every frame.
    """
    counts = _FrameCounts(sensing_range, truth)
    total = fsum_counted(counts.squared_errors(lines))
    count = counts.count
    summary = [f"frames,{count}"]
    if count:
        on_counts = [0, 0, 0, 0]
        pattern_counts = dict.fromkeys(PATTERNS, 0)
        for tail, n in counts.tails.items():
            states, pattern = _FRAME_TAILS[tail]
            for index, on in enumerate(states):
                on_counts[index] += n * on
            pattern_counts[pattern] += n
        summary += [f"t_first,{counts.t_first!r}", f"t_last,{counts.t_last!r}",
                    f"saturated_frames,{counts.saturated}"]
        summary += [f"duty_cycle_e{i},{on / count!r}" for i, on in enumerate(on_counts, start=1)]
        summary += [f"pattern_{label},{pattern_counts[label]}" for label in PATTERNS]
    if truth is not None:
        if not count:
            raise UsageError("cannot compute RMSE of an empty frame stream")
        summary.append(f"rmse_n,{math.sqrt(total / count)!r}")
    return "\n".join(summary)


#: ``(states, pattern)`` of each canonically spelled frame tail, with each line end or none.
_FRAME_TAILS = {
    frame_tail(on, pattern) + end: (on, pattern)
    for on in product((False, True), repeat=4) for pattern in PATTERNS
    for end in ("", "\n", "\r\n")
}


def _squared_error(estimate: float, truth: float) -> float:
    try:
        return (estimate - truth) ** 2
    except OverflowError:  # a square past the largest float
        return math.inf


class _FrameCounts:
    """What ``summarize_lines`` keeps of the frame lines read so far."""

    def __init__(self, sensing_range: float, truth: LoadScenario):
        self.sensing_range, self.truth = sensing_range, truth
        self.count = self.saturated = 0
        self.t_first = self.t_last = None
        self.tails = Counter()  # tail spelling -> frames

    def squared_errors(self, lines):
        """Count every line, one block at a time, lazily.

        Yields ``(squared error, frames)`` pairs against the scenario, if
        there is one. A block goes through ``_block``, or, if that
        declines it, through ``_lines``.
        """
        lines, number = iter(lines), 0
        while block := list(islice(lines, BLOCK_TICKS)):
            pairs = self._block(block)
            if pairs is None:
                pairs = self._lines(block, number)
            yield from pairs
            number += len(block)

    def _block(self, block):
        """Count a block of canonically spelled frame lines in C-level passes.

        Each line is split once, and each distinct raw, filtered and tail
        spelling checked once, as ``parse_frame`` checks it. With a
        scenario, times that do not decrease are paired with its steps
        by bisection, and filtered spellings counted per step. Returns
        the block's squared-error pairs, or None, with nothing counted,
        for a block with any other line, or whose times go back or start
        before the scenario.
        """
        columns = list(zip(*map(str.split, block, repeat(","), repeat(3))))
        if len(columns) != 4:  # a line of fewer than four fields
            return None
        time_texts, raw_texts, filtered_texts, tail_texts = columns
        tails, raws, spellings = Counter(tail_texts), Counter(raw_texts), set(filtered_texts)
        try:
            times = list(map(float, time_texts))
            raw_values = list(map(float, raws))
            filtered = dict(zip(spellings, map(float, spellings)))
        except ValueError:
            return None
        if not (all(map(math.isfinite, times)) and min(times) >= 0.0
                and all(map(math.isfinite, raw_values))
                and all(map(math.isfinite, filtered.values()))
                and _FRAME_TAILS.keys() >= tails.keys()):
            return None
        pairs = []
        if self.truth is not None:
            steps, step_times = self.truth.steps, self.truth.step_times
            if not (times[0] >= self.truth.start_time
                    and all(map(le, times, islice(times, 1, None)))):
                return None
            lo = 0
            while lo < len(times):  # one pass per scenario step the block reaches
                k = bisect_right(step_times, times[lo])
                hi = bisect_left(times, step_times[k], lo) if k < len(steps) else len(times)
                force = steps[k - 1].force
                pairs += [(_squared_error(filtered[text], force), n)
                          for text, n in Counter(filtered_texts[lo:hi]).items()]
                lo = hi
        if not self.count:
            self.t_first = times[0]
        self.t_last = times[-1]
        self.count += len(times)
        self.saturated += sum(n for value, n in zip(raw_values, raws.values())
                              if value >= self.sensing_range)
        self.tails.update(tails)
        return pairs

    def _lines(self, block, number: int):
        """Count a block line by line, after the ``number`` lines before it.

        Each line that is not blank or a ``#`` comment goes through
        ``parse_frame``, which names the line in any error.
        """
        pairs = Counter()  # (filtered force, scenario force) -> frames
        for number, line in enumerate(block, start=number + 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            frame = parse_frame(text, number)
            if not self.count:
                self.t_first = frame.time
            self.t_last = frame.time
            self.count += 1
            self.saturated += frame.raw_force >= self.sensing_range
            self.tails[frame_tail(frame.element_state, frame.pattern)] += 1
            if self.truth is not None:
                try:
                    pairs[frame.filtered_force, self.truth.at(frame.time)[0]] += 1
                except ValueError as exc:  # a frame before the scenario start
                    raise ParseError(str(exc), number) from exc
        return [(_squared_error(*pair), n) for pair, n in pairs.items()]
