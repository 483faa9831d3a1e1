"""End-to-end runs: scenario simulation, stream estimation, summaries.

Everything here streams: simulation, estimation and summaries work one
block of ``BLOCK_TICKS`` ticks or lines at a time, so a replay never
holds more than one block in memory regardless of length. All
randomness comes from one seeded generator that draws exactly five
amplifier-noise samples per tick in channel order, which makes every run
byte-reproducible. The generator is ``rng.Pcg64``, the values of
``numpy.random.default_rng(seed)`` in pure Python, so simulation imports
no numpy and its bytes stay the same across numpy versions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache, partial
from itertools import compress, count, islice, product, repeat
from operator import ge

from .bridge import Chain, stage_code
from .bridge import sample_chain  # noqa: F401  the per-sample chain; bench/spans.py traces it here
from .calibration import CalibrationDataset, expand_protocol
from .config import ToolkitConfig, channel_signal
from .errors import DataError, ParseError, StreamError, UsageError
from .estimator import (
    PATTERNS, EstimatorConfig, StreamState, classify_pattern, estimate_force, exact_units,
    format_frame, frame_tail, parse_frame, process_frame,
)
from .sensor import LoadScenario, apply_load, fabric_delta_r
from .streams import SampleLine, format_sample_line, parse_sample_line, plain_ascii
from .units import fsum_counted, gw_to_newtons
from .units import rmse  # noqa: F401  imported only for bench/spans.py to trace

#: Ticks per block, simulated or read and written; a replay holds at most one block.
BLOCK_TICKS = 1024


def tick_count(adc_rate: float, end_time: float) -> int:
    """Number of ticks k/rate, k = 0, 1, ..., from zero through ``end_time``.

    A DataError if that is 2**53 or more, past which tick numbers are not
    all exact floats, or if the last tick's number overflows.
    """
    last = end_time * adc_rate + 1e-9  # the last tick's number, before rounding down
    if not (math.isfinite(last) and last < 2**53 - 1):
        raise DataError(f"a scenario ending at {end_time!r} s at {adc_rate!r} Hz "
                        "is out of the sample clock's range of 2**53 ticks")
    return max(math.floor(last) + 1, 0)


def _load_table(cfg: ToolkitConfig, scenario: LoadScenario):
    """Sensing-arm rises of each distinct load, and each step's row of them.

    Returns ``(deltas, load_of_step)``, two lists. ``deltas`` has one row
    per distinct signed load ``(force, quadrants)``, in the order the
    steps first reach it: each channel's rise, fabric first, as
    ``apply_load`` gives it at that load's first step. ``load_of_step``
    holds each step's row index. The load is held between steps, so these
    rows are all the resistance states a simulation can visit. ``-0.0``
    keeps a row apart from ``0.0``, since its fabric rise is ``-0.0``.
    """
    rows, deltas, load_of_step = {}, [], []
    for step in scenario.steps:
        load = (step.force, math.copysign(1.0, step.force), step.quadrants)
        if load not in rows:
            rows[load] = len(deltas)
            fabric, elements = apply_load(scenario, cfg.fabric, cfg.elements, step.time)
            deltas.append([fabric, *(r - e.rest_resistance for r, e in zip(elements, cfg.elements))])
        load_of_step.append(rows[load])
    return deltas, load_of_step


#: Runs shorter than this many ticks per code of their span compute every
#: code: about where sorting and looking up the draws costs what bisection saves.
_BISECT_TICKS_PER_CODE = 12

#: The lowest and the highest value of ``Pcg64.uniform``.
_NOISE_RANGE = (-1.0, 1.0 - 2.0**-52)


def _run_codes(code, noise, raws, first: int, final: int):
    """The codes ``code(noise(raw))`` of a run's raw draws, for a code that is
    monotone in the draw and is ``first`` at the lowest draw and ``final``
    at the highest.

    A run long against its code span is sorted, and the draws where the
    code changes are found by bisection, each draw's code computed at most
    once; every draw then takes its code by ``bisect_right`` over those
    change points. A shorter run computes every draw's code, which
    bisection could not beat. So no run computes more codes than it has
    draws, and the choice rests only on the run's length and end codes.
    """
    n = len(raws)
    if n < _BISECT_TICKS_PER_CODE * abs(final - first):
        return list(map(code, map(noise, raws)))
    ordered = sorted(raws)
    # Positions -1 and n stand for the lowest and the highest draw, whose codes are known.
    starts, codes, spans = [], [first], [(-1, first, n, final)]
    while spans:  # split from the lowest draw up, so the change points come in order
        lo, low_code, hi, high_code = spans.pop()
        if low_code == high_code:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            mid_code = code(noise(ordered[mid]))
            spans += ((mid, mid_code, hi, high_code), (lo, low_code, mid, mid_code))
        elif hi < n:  # the code changes at draw hi
            starts.append(ordered[hi])
            codes.append(high_code)
    return list(map(codes.__getitem__, map(bisect_right, repeat(starts), raws)))


def simulate_blocks(cfg: ToolkitConfig, scenario: LoadScenario, seed=None):
    """ADC sample stream for a load scenario, one block of ticks at a time.

    A lazy iterator of ``(times, rows)`` pairs of lists: up to
    ``BLOCK_TICKS`` float tick times and, for each, a tuple of its five
    int ADC codes. The sample clock starts at t = 0, so scenarios must
    start there. The scenario, its tick count and the bridges are checked
    when this is called, before any sample is produced. It is every
    block of ``simulate_plan``.
    """
    blocks, _ = simulate_plan(cfg, scenario, seed=seed)
    return blocks()


def simulate_plan(cfg: ToolkitConfig, scenario: LoadScenario, seed=None):
    """``simulate_blocks``' set-up and checks, done once: ``(blocks, count)``.

    ``count`` is the stream's number of blocks, and ``blocks(offset=0,
    stride=1)`` a lazy iterator of its blocks ``offset``, ``offset +
    stride``, ... as ``simulate_blocks`` yields them. Each call starts its
    own generator state ``offset`` blocks in and jumps it over the
    ``stride - 1`` blocks after each of its own (Brown's arbitrary-stride
    jump, ``Pcg64.jump``), so calls that share the blocks out between them,
    in one process or several, give every byte of one call that takes them all.

    Each tick takes the next five draws of ``rng.Pcg64``, one per
    channel in channel order. The chain's inputs are computed once per
    distinct load of ``_load_table`` and converted at the lowest and the
    highest draw, so a chain that overflows fails here. Every stage is a
    monotone rounding, so a channel's code is monotone in its draw: one
    whose code is the same at the lowest and the highest draw keeps it on
    every tick of that load, and its draw is never computed.

    Ticks go in runs: those of one block on one scenario step, found by
    bisection as ``LoadScenario.at`` finds it. The generator's state
    crosses a run of n ticks in one jump of 5n draws, memoised by n. Each
    channel whose code can move steps its own state by the tick jump, one
    multiply per draw it reads, and ``_run_codes`` gives the run's codes,
    by bisection over its sorted draws where the run is long enough. A
    scenario costs a few bytes per step on top of its ``LoadStep`` objects.
    """
    from .rng import MASK128, Pcg64, output, uniform_of
    if scenario.start_time > 0:
        raise DataError(
            f"scenario starts at {scenario.start_time} s, after the sample clock's t = 0"
        )
    chain = cfg.sensing_chain()
    deltas, load_of_step = _load_table(cfg, scenario)
    try:  # every state the run can visit, at the lowest and the highest draw
        v_in = chain.inputs(deltas)
        low, high = (chain.convert(v_in, [[noise] * chain.channels] * len(v_in))
                     for noise in _NOISE_RANGE)
    except ValueError as exc:  # config values whose chain overflows
        raise DataError(str(exc)) from exc
    rate = cfg.adc.sample_rate
    ticks = tick_count(rate, scenario.end_time)
    step_times, last = scenario.step_times, len(scenario.step_times) - 1
    rng = Pcg64(cfg.seed if seed is None else seed)
    channels = chain.channels
    # Per load: its codes at the lowest draw, and for each channel whose code
    # moves, (channel, its code of a draw, its codes at the lowest and the
    # highest draw, the jump from a run's state to the channel's first draw).
    loads = [(tuple(codes), [(c, partial(stage_code, *chain.stages[c], volts[c]),
                              codes[c], top[c], *rng.jumps[c])
                             for c in range(channels) if codes[c] != top[c]])
             for codes, top, volts in zip(low, high, v_in)]
    tick_a, tick_c = rng.jumps[channels - 1]  # a tick: one draw per channel
    run_jump = cache(rng.jump)  # n ticks: 5n draws, n <= BLOCK_TICKS
    block_draws = channels * BLOCK_TICKS

    def blocks(offset=0, stride=1):
        a, b = rng.jump(block_draws * offset)
        state, step = (a * rng.state + b) & MASK128, 0
        skip_a, skip_b = rng.jump(block_draws * (stride - 1))  # the other blocks' draws
        for start in range(offset * BLOCK_TICKS, ticks, stride * BLOCK_TICKS):
            times = [k / rate for k in range(start, min(start + BLOCK_TICKS, ticks))]
            rows, done = [], 0
            while done < len(times):  # one pass per scenario step the block reaches
                step = bisect_right(step_times, times[done], step) - 1
                end = bisect_left(times, step_times[step + 1], done) if step < last else len(times)
                n = end - done
                codes, live = loads[load_of_step[step]]
                if live:
                    columns = [repeat(code, n) for code in codes]
                    for c, code, first, final, a, b in live:
                        draw = (a * state + b) & MASK128  # the channel's own state
                        raws = [output(draw)]
                        raws += [output(draw := (tick_a * draw + tick_c) & MASK128)
                                 for _ in range(n - 1)]
                        columns[c] = _run_codes(code, uniform_of, raws, first, final)
                    rows += zip(*columns)
                else:
                    rows += [codes] * n
                a, b = run_jump(channels * n)
                state = (a * state + b) & MASK128
                done = end
            state = (skip_a * state + skip_b) & MASK128
            yield times, rows

    return blocks, -(-ticks // BLOCK_TICKS)


def simulate_samples(cfg: ToolkitConfig, scenario: LoadScenario, seed=None):
    """ADC sample stream for a load scenario: a lazy iterator of SampleLine.

    The ticks of ``simulate_blocks``, checked the same way when this is called.
    """
    blocks = simulate_blocks(cfg, scenario, seed=seed)
    return (SampleLine(t, codes) for times, rows in blocks for t, codes in zip(times, rows))


def capture_protocol_dataset(cfg: ToolkitConfig, seed=None, weights=None) -> CalibrationDataset:
    """Run the bench weight protocol through the simulated chain.

    Each calibration weight is pressed repeatedly onto the pad and the
    force-layer signal recorded against the known force, yielding the
    dataset a real calibration session would produce.
    """
    from .rng import Pcg64
    rng = Pcg64(cfg.seed if seed is None else seed)
    weights_gw = expand_protocol(weights)
    forces = [gw_to_newtons(weight) for weight in weights_gw]
    deltas = [[fabric_delta_r(cfg.fabric, force)] for force in forces]
    noise = [[value] for value in rng.uniform(len(forces))]
    codes = Chain((cfg.bridge,), cfg.adc).codes(deltas, noise)
    signals = [channel_signal(cfg, code) for code, in codes]
    return CalibrationDataset(signals, forces, weights_gw=weights_gw)


#: Frame-record tail of each element on-state tuple.
_TAILS = {on: frame_tail(on, classify_pattern(on)) for on in product((False, True), repeat=4)}


def estimate_frames(cfg: ToolkitConfig, est_cfg: EstimatorConfig, samples):
    """Yield one EstimateFrame per sample, lazily.

    Each sample's values are checked as ADC codes by ``_sample_codes``,
    converted with ``channel_signal`` and stepped through
    ``process_frame``. An error names the sample's line, or else its
    ordinal; a force-layer signal the model cannot take is a DataError.
    """
    state = StreamState(est_cfg.filter_window)
    for ordinal, sample in enumerate(samples, start=1):
        try:
            signals = [channel_signal(cfg, code) for code in _sample_codes(cfg, sample.channels)]
            frame = process_frame(est_cfg, state, signals, sample.time)
        except (DataError, ValueError) as exc:  # a ValueError: a signal that overflows
            where = f"sample {ordinal}" if sample.line_number is None else f"line {sample.line_number}"
            kind = type(exc) if isinstance(exc, DataError) else DataError
            raise kind(f"{where}: {exc}") from exc
        yield frame


def _sample_codes(cfg: ToolkitConfig, channels) -> list:
    """The channel values of one sample as ADC codes.

    A DataError, which the caller prefixes with where the sample came
    from, for a value that is not a code in range.
    """
    max_code, codes = cfg.adc.max_code, []
    for value in channels:
        try:
            code = round(value)
        except (OverflowError, ValueError):  # inf or nan
            code = None
        if code != value:
            raise DataError(f"channel value {value!r} is not an ADC code")
        if not 0 <= code <= max_code:
            raise DataError(f"code {code} outside [0, {max_code}]")
        codes.append(code)
    return codes


def estimate_lines(cfg: ToolkitConfig, est_cfg: EstimatorConfig, lines, out) -> None:
    """Replay sample stream lines and write their frame record lines to ``out``.

    Writes what ``format_frame`` gives for each frame of
    ``estimate_frames(cfg, est_cfg, read_samples(lines))``, through
    ``_replay_blocks`` and ``_Replay``, in constant memory. An error names
    its line, after the frames before that line are written.
    """
    replay = _Replay(cfg, est_cfg, out)
    for _ in _replay_blocks(lines, replay.block, replay.respell):
        pass


def _replay_blocks(lines, block, respell):
    """Yield ``block``'s result for each ``BLOCK_TICKS`` lines, lazily.

    ``block(lines, numbers)`` takes lines and each one's file line number,
    or declines them by returning None, having done nothing. A declined
    block's lines, but blank and ``#`` ones, go back through ``block``
    with their own numbers. If it declines those too, they go through
    ``respell(text, number)`` in file order, so an error names its line,
    and back through ``block``, which takes every respelled line: those
    before a bad line before the error propagates, so a clock error among
    them comes first.
    """
    lines, read = iter(lines), 0
    while chunk := list(islice(lines, BLOCK_TICKS)):
        numbers = range(read + 1, read + len(chunk) + 1)
        read += len(chunk)
        result = block(chunk, numbers)
        if result is None:
            kept = [(line, number) for line, number in zip(chunk, numbers)
                    if (text := line.strip()) and not text.startswith("#")]
            if len(kept) < len(chunk):
                chunk, numbers = zip(*kept) if kept else ((), ())
                result = block(chunk, numbers) if kept else ()
        if result is None:
            respelled = []
            try:
                for line, number in zip(chunk, numbers):
                    respelled.append(respell(line.strip(), number))
            finally:
                result = block(respelled, numbers[:len(respelled)]) if respelled else ()
        yield result


def _columns(lines, fields: int):
    """``(times, column, ...)`` of lines split at their first ``fields - 1`` commas.

    The first column is converted with ``float``. None, before any line is
    split, if one holds a ``#`` (no canonical line does) or is not
    ``plain_ascii``; None too with a line of fewer fields, or with a time
    that is not finite and non-negative.
    """
    if "#" in (text := "".join(lines)) or not plain_ascii(text):
        return None
    columns = list(zip(*map(str.split, lines, repeat(","), repeat(fields - 1))))
    if len(columns) != fields:
        return None
    try:
        times = list(map(float, columns[0]))
    except ValueError:
        return None
    if not (all(map(math.isfinite, times)) and min(times) >= 0.0):
        return None
    return times, *columns[1:]


class _Replay:
    """What ``estimate_lines``' block pass keeps: the stream state, the
    force and tail tables, each element's threshold code and the output.

    A replay feeds the estimator few distinct ADC codes, so the model and
    the clamp are evaluated once per force code, with the values
    ``process_frame`` gives for that code's signal, and then looked up.
    ``channel_signal`` never falls as the code rises, so each element's
    rule ``signal >= threshold`` is ``code >= first_on[i]``, found once
    per config by bisection: the smallest code whose signal meets the
    threshold, or ``max_code + 1`` if none does.

    ``forces`` maps the canonical spelling of each force code seen
    (``str(code)``) to the ``StreamState`` entry of its clamped force,
    ``(force, repr(force), exact_units(force))``, so a stream line can be
    looked up without converting its fields. ``tails`` maps the
    ``c1,c2,c3,c4`` end of a stream line, as read, to the
    ``,e1,e2,e3,e4,pattern`` end of its frame line. Other spellings of a
    code are never added. A table that holds ``BLOCK_TICKS`` entries is
    emptied before it takes a new one, so each stays at most that size
    whatever the ADC width. ``out`` takes the frame lines of ``block``.
    """

    def __init__(self, cfg: ToolkitConfig, est_cfg: EstimatorConfig, out):
        self.cfg, self.est_cfg, self.out = cfg, est_cfg, out
        self.state = StreamState(est_cfg.filter_window)
        self.forces, self.tails = {}, {}
        codes = range(cfg.adc.max_code + 1)
        self.first_on = tuple(
            bisect_left(codes, True, key=lambda code: channel_signal(cfg, code) >= threshold)
            for threshold in est_cfg.element_thresholds)
        self.digits = len(str(cfg.adc.max_code))

    def _code(self, key: str):
        """The code ``key`` spells canonically, or None if it is not one in range.

        A key longer than ``max_code``'s spelling is never converted, so
        no field is too long for ``int``.
        """
        if len(key) > self.digits or not (key.isascii() and key.isdigit()):
            return None
        code = int(key)
        return code if str(code) == key and code <= self.cfg.adc.max_code else None

    def entry(self, key: str):
        """The force entry of the code spelled ``key``, added if new.

        None if ``key`` is not the canonical spelling of a code in range,
        or if the code's force-layer signal overflows at this ADC scale.
        """
        if key in self.forces:
            return self.forces[key]
        if (code := self._code(key)) is None:
            return None
        try:
            force = estimate_force(self.est_cfg, channel_signal(self.cfg, code))
        except ValueError:
            return None
        if len(self.forces) >= BLOCK_TICKS:
            self.forces.clear()
        entry = self.forces[key] = (force, repr(force), exact_units(force))
        return entry

    def tail(self, text: str):
        """The frame-line end of a stream line's ``c1,c2,c3,c4`` end, added if new.

        None unless ``text`` holds four codes spelled as ``entry`` takes
        them, then its line end (LF, CRLF or CR) or nothing.
        """
        if text in self.tails:
            return self.tails[text]
        codes = list(map(self._code, text.rstrip("\r\n").split(",")))
        if len(codes) != 4 or None in codes:
            return None
        if len(self.tails) >= BLOCK_TICKS:
            self.tails.clear()
        spelled = self.tails[text] = f",{_TAILS[tuple(map(ge, codes, self.first_on))]}\n"
        return spelled

    def block(self, lines, numbers):
        """Write the frames of sample lines in C-level passes; True once written.

        Every time is spelled, each distinct force code and element tail
        looked up once, and the filter stepped through
        ``StreamState.step``. None, with nothing written or stepped, for
        lines that are not a time and five canonically spelled codes. A
        time that does not advance the clock raises its StreamError,
        naming its line from ``numbers``, after the frames before it.
        """
        if (columns := _columns(lines, 3)) is None:
            return None
        times, force_texts, tail_texts = columns
        state = self.state
        forces = {text: self.entry(text) for text in set(force_texts)}
        tails = {text: self.tail(text) for text in set(tail_texts)}
        if None in forces.values() or None in tails.values():
            return None
        clock = [-math.inf if state.last_time is None else state.last_time, *times]
        late = next(compress(count(), map(ge, clock, times)), None)
        if late is not None:  # the frames before the late tick, then its error
            late_time = times[late]
            times, force_texts, tail_texts = times[:late], force_texts[:late], tail_texts[:late]
        raws = {text: f",{entry[1]}," for text, entry in forces.items()}
        frames = [None] * (4 * len(times))
        frames[0::4] = map(repr, times)
        frames[1::4] = map(raws.__getitem__, force_texts)
        frames[2::4] = state.step(list(map(forces.__getitem__, force_texts)))
        frames[3::4] = map(tails.__getitem__, tail_texts)
        self.out.write("".join(frames))
        if times:
            state.last_time = times[-1]
        if late is not None:
            try:
                state.tick(late_time)  # raises the clock's own error
            except StreamError as exc:
                raise StreamError(f"line {numbers[late]}: {exc}") from exc
        return True

    def respell(self, text: str, number: int) -> str:
        """Line ``number``, ``text``, checked as ``estimate_frames`` checks a
        sample and spelled as ``format_sample_line`` spells it."""
        sample = parse_sample_line(text, number)
        next(estimate_frames(self.cfg, self.est_cfg, [sample]))  # raises the line's DataError
        return format_sample_line(sample) + "\n"


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
    blocks = _replay_blocks(lines, counts.block, counts.respell)
    total = fsum_counted(pair for pairs in blocks for pair in pairs)
    count = counts.count
    summary = [f"frames,{count}"]
    if count:
        on_counts = [0, 0, 0, 0]
        pattern_counts = dict.fromkeys(PATTERNS, 0)
        for tail, n in counts.tails.items():
            states, pattern = _FRAME_TAILS[tail.rstrip("\r\n")]
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


#: ``(states, pattern)`` of each canonically spelled frame tail, its line end dropped.
_FRAME_TAILS = {frame_tail(on, pattern): (on, pattern)
                for on in product((False, True), repeat=4) for pattern in PATTERNS}


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

    def block(self, lines, numbers):
        """Count frame lines in C-level passes; their ``(squared error, frames)`` pairs.

        Each distinct raw, filtered and tail spelling is checked once, as
        ``parse_frame`` checks it. With a scenario, the times in sorted
        order (squared errors are summed exactly, in any order) are paired
        with its steps by bisection, and filtered spellings counted per
        step. None, with nothing counted, for lines not all spelled as
        ``format_frame`` spells them, or with a time before the scenario.
        """
        if (columns := _columns(lines, 4)) is None:
            return None
        times, raw_texts, filtered_texts, tail_texts = columns
        tails, raws, spellings = Counter(tail_texts), Counter(raw_texts), set(filtered_texts)
        try:
            raw_values = list(map(float, raws))
            filtered = dict(zip(spellings, map(float, spellings)))
        except ValueError:
            return None
        if not (all(map(math.isfinite, raw_values))
                and all(map(math.isfinite, filtered.values()))
                and _FRAME_TAILS.keys() >= {tail.rstrip("\r\n") for tail in tails}):
            return None
        pairs = []
        if self.truth is not None:
            steps, step_times = self.truth.steps, self.truth.step_times
            if min(times) < self.truth.start_time:
                return None
            in_order, texts = sorted(times), filtered_texts
            if in_order != times:  # times that go back: sort the spellings with them
                in_order, texts = zip(*sorted(zip(times, filtered_texts)))
            lo = 0
            while lo < len(in_order):  # one pass per scenario step the block reaches
                k = bisect_right(step_times, in_order[lo])
                hi = bisect_left(in_order, step_times[k], lo) if k < len(steps) else len(in_order)
                force = steps[k - 1].force
                pairs += [(_squared_error(filtered[text], force), n)
                          for text, n in Counter(texts[lo:hi]).items()]
                lo = hi
        if not self.count:
            self.t_first = times[0]
        self.t_last = times[-1]
        self.count += len(times)
        self.saturated += sum(n for value, n in zip(raw_values, raws.values())
                              if value >= self.sensing_range)
        self.tails.update(tails)
        return pairs

    def respell(self, text: str, number: int) -> str:
        """Line ``number``, ``text``, checked and spelled as ``format_frame`` spells it.

        With a scenario, a frame before its start is a ParseError.
        """
        frame = parse_frame(text, number)
        if self.truth is not None:
            try:
                self.truth.at(frame.time)
            except ValueError as exc:  # a frame before the scenario start
                raise ParseError(str(exc), number) from exc
        return format_frame(frame)
