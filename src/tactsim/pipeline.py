"""End-to-end runs: scenario simulation, stream estimation, summaries.

Everything here streams: simulation and estimation work one block of
``BLOCK_TICKS`` ticks or lines at a time, so a replay never holds more
than one block in memory regardless of length. All randomness comes from one seeded generator that draws
exactly five amplifier-noise samples per tick in channel order, which
makes every run byte-reproducible.
"""

import math
from itertools import islice, product

import numpy as np

from .bridge import Chain
from .bridge import sample_chain  # noqa: F401  the per-sample chain; bench/spans.py traces it here
from .calibration import CalibrationDataset, protocol_weights
from .config import ToolkitConfig, channel_signal
from .errors import DataError, StreamError, UsageError
from .estimator import (
    PATTERNS,
    EstimatorConfig,
    StreamState,
    advance,
    classify_pattern,
    estimate_force,
    frame_tail,
    parse_frame,
    process_frame,
)
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
        """Add the codes of one sample, in channel order, checking each.

        Returns the sample's five table keys.
        """
        keys = []
        for channel, code in enumerate(_checked_codes(self.cfg, channels, where)):
            key, table = str(code), self.text[channel]
            if key not in table:
                signal = channel_signal(self.cfg, code)
                if channel:
                    table[key] = signal >= self.est_cfg.element_thresholds[channel - 1]
                else:
                    force = estimate_force(self.est_cfg, signal)
                    table[key] = (force, repr(force))
            keys.append(key)
        return keys


def _checked_codes(cfg: ToolkitConfig, channels, where: str) -> list:
    """The channel values of one sample as int ADC codes, each checked."""
    max_code, codes = cfg.adc.max_code, []
    for value in channels:
        code = int(round(value))
        if code != value:
            raise DataError(f"{where}: channel value {value!r} is not an ADC code")
        if not 0 <= code <= max_code:
            raise DataError(f"{where}: code {code} outside [0, {max_code}]")
        codes.append(code)
    return codes


#: Frame-record tail of each element on-state tuple.
_TAILS = {on: frame_tail(on, classify_pattern(on)) for on in product((False, True), repeat=4)}


def estimate_frames(cfg: ToolkitConfig, est_cfg: EstimatorConfig, samples):
    """Yield one EstimateFrame per sample, lazily.

    The per-tick definition of a replay: each tick's codes are checked,
    converted to signals and stepped through ``process_frame``.
    ``estimate_lines`` writes the same frames from per-code tables.
    """
    state = StreamState(est_cfg.filter_window)
    for ordinal, sample in enumerate(samples, start=1):
        codes = _checked_codes(cfg, sample.channels, _where(sample, ordinal))
        signals = tuple(channel_signal(cfg, code) for code in codes)
        try:
            frame = process_frame(est_cfg, state, signals, sample.time)
        except StreamError as exc:
            raise StreamError(f"{_where(sample, ordinal)}: {exc}") from exc
        yield frame


def _where(sample: SampleLine, ordinal: int) -> str:
    if sample.line_number is not None:
        return f"line {sample.line_number}"
    return f"sample {ordinal}"


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
    """Deterministic plain-text summary of a frame stream.

    Reports frame and saturation counts, per-element duty cycles, and
    pattern counts; with a ground-truth scenario it also reports the
    RMSE of the filtered force against the scenario force.
    """
    count = saturated = 0
    t_first = t_last = None
    tally = {}
    estimates, true_forces = [], []
    for frame in frames:
        if count == 0:
            t_first = frame.time
        t_last = frame.time
        count += 1
        if frame.raw_force >= sensing_range:
            saturated += 1
        key = (frame.element_state, frame.pattern)
        tally[key] = tally.get(key, 0) + 1
        if truth is not None:
            estimates.append(frame.filtered_force)
            true_forces.append(truth.at(frame.time)[0])
    scored = (estimates, true_forces) if truth is not None else None
    return _summary(count, t_first, t_last, saturated, tally, scored)


def summarize_lines(lines, sensing_range: float, truth: LoadScenario = None) -> str:
    """``summarize_frames`` of the frames in frame record lines.

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
            true_forces.append(truth.at(time)[0])
    scored = (estimates, true_forces) if truth is not None else None
    return _summary(count, t_first, t_last, saturated,
                    {tails[tail]: n for tail, n in tally.items()}, scored)


def _summary(count, t_first, t_last, saturated, tally, scored) -> str:
    """Summary text from the frame counts; ``tally`` maps (states, pattern) to frames."""
    lines = [f"frames,{count}"]
    if count:
        on_counts = [0, 0, 0, 0]
        pattern_counts = dict.fromkeys(PATTERNS, 0)
        for (states, pattern), n in tally.items():
            for index, on in enumerate(states):
                on_counts[index] += n * bool(on)
            pattern_counts[pattern] += n
        lines.append(f"t_first,{t_first!r}")
        lines.append(f"t_last,{t_last!r}")
        lines.append(f"saturated_frames,{saturated}")
        for index, on in enumerate(on_counts, start=1):
            lines.append(f"duty_cycle_e{index},{on / count!r}")
        for label in PATTERNS:
            lines.append(f"pattern_{label},{pattern_counts[label]}")
    if scored is not None:
        if not count:
            raise UsageError("cannot compute RMSE of an empty frame stream")
        lines.append(f"rmse_n,{rmse(*scored)!r}")
    return "\n".join(lines)
