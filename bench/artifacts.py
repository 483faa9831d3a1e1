"""Checks on the files one pass of a workload leaves behind.

Everything here reads the artifacts from outside the program: digests,
the simulated statistics a user would read off the outputs, and an
independent re-derivation of the estimator frames and the report from
the stream, the model file and the scenario. None of it imports
tactsim, so a change to the program cannot change what is checked.
"""

import bisect
import hashlib
import json
import math
from collections import deque

from workloads import ADC_MAX_CODE, SAMPLE_RATE, SENSING_RANGE

PATTERNS = ("none", "point", "line", "area", "area")
ADC_FULL_SCALE = 5.0
FILTER_WINDOW = 4


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def producers(plan) -> dict:
    """Artifact name -> index of the command that writes it."""
    return {name: i for i, c in enumerate(plan.commands) for name in c.outputs}


class CheckError(Exception):
    """An artifact disagrees with what the checks derive for it."""


#: What reading a damaged or missing artifact can raise.
BAD_ARTIFACT = (CheckError, ValueError, KeyError, IndexError, TypeError, AttributeError,
                OSError)


def _lines(path):
    return path.read_text().splitlines()


def check_cv_table(path) -> dict:
    lines = _lines(path)
    if not lines or lines[0] != "order,mean_train_rmse_n,mean_test_rmse_n":
        raise CheckError(f"{path.name}: bad header")
    rows = [line.split(",") for line in lines[1:-1]]
    tail = lines[-1].split(",")
    if tail[0] != "selected_order" or any(len(r) != 3 for r in rows) or not rows:
        raise CheckError(f"{path.name}: malformed table")
    orders = [int(r[0]) for r in rows]
    tests = [float(r[2]) for r in rows]
    best = orders[tests.index(min(tests))]
    if int(tail[1]) != best:
        raise CheckError(f"{path.name}: selected order {tail[1]} is not the argmin {best}")
    return {"orders": orders, "test_rmse": tests, "selected_order": best}


def check_model(path, table) -> list:
    payload = json.loads(path.read_text())
    coefficients = payload.get("coefficients", [])
    fit = payload.get("fit", {})
    if payload.get("order") != table["selected_order"]:
        raise CheckError(f"{path.name}: order differs from the selected order")
    if len(coefficients) != table["selected_order"] + 1:
        raise CheckError(f"{path.name}: coefficient count does not match the order")
    if fit.get("test_rmse") != table["test_rmse"] or fit.get("orders") != table["orders"]:
        raise CheckError(f"{path.name}: fit record differs from the CV table")
    return [float(c) for c in coefficients]


def _load_at(times, steps, t):
    return steps[bisect.bisect_right(times, t) - 1]


def check_stream(path, plan) -> tuple:
    """Parse the sample stream; return (rows, per-channel code counts).

    Every tick must be present at ``k / rate``. A channel whose layer
    carries no load must read code 0: the bridges are balanced at rest
    and the amplifier noise is multiplicative.
    """
    times = [s.time for s in plan.scenario]
    rows, at_zero, at_max = [], [0] * 5, [0] * 5
    lines = _lines(path)
    if len(lines) != plan.ticks:
        raise CheckError(f"{path.name}: {len(lines)} ticks, expected {plan.ticks}")
    for k, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != 6 or fields[0] != repr(k / SAMPLE_RATE):
            raise CheckError(f"{path.name} line {k + 1}: bad tick {line!r}")
        codes = [int(f) for f in fields[1:]]
        step = _load_at(times, plan.scenario, k / SAMPLE_RATE)
        loaded = [step.force > 0] + [step.force > 0 and q in step.quadrants
                                     for q in (1, 2, 3, 4)]
        for channel, code in enumerate(codes):
            if not 0 <= code <= ADC_MAX_CODE:
                raise CheckError(f"{path.name} line {k + 1}: code {code} out of range")
            # An element under load may still sit below its trigger.
            if code != 0 and not loaded[channel] or channel == 0 and loaded[0] and code == 0:
                raise CheckError(f"{path.name} line {k + 1}: channel {channel} "
                                 f"reads {code} under load {step.force}")
            at_zero[channel] += code == 0
            at_max[channel] += code == ADC_MAX_CODE
        rows.append((fields[0], codes))
    return rows, {"code_0": at_zero, "code_max": at_max}


def _horner(coefficients, v):
    result = 0.0
    for c in reversed(coefficients):
        result = result * v + c
    return result


def check_frames(path, stream_rows, coefficients, gain) -> list:
    """Re-derive raw and filtered force from the stream and the model.

    Element states are checked for consistency only: each element must
    switch at a single code threshold, and the pattern must match the
    number of active elements.
    """
    sensing_range = SENSING_RANGE[gain]
    lines = _lines(path)
    if len(lines) != len(stream_rows):
        raise CheckError(f"{path.name}: {len(lines)} frames for {len(stream_rows)} ticks")
    window = deque(maxlen=FILTER_WINDOW)
    off_max, on_min = [-1] * 4, [ADC_MAX_CODE + 1] * 4
    frames = []
    for k, (line, (time, codes)) in enumerate(zip(lines, stream_rows)):
        fields = line.split(",")
        where = f"{path.name} line {k + 1}"
        raw = min(max(_horner(coefficients, codes[0] * ADC_FULL_SCALE / ADC_MAX_CODE),
                      0.0), sensing_range)
        window.append(raw)
        filtered = window[0] if all(v == window[0] for v in window) else (
            math.fsum(window) / len(window))
        if fields[:3] != [time, repr(raw), repr(filtered)] or len(fields) != 8:
            raise CheckError(f"{where}: {line!r} differs from the derived force "
                             f"{raw!r}/{filtered!r}")
        states = [f == "1" for f in fields[3:7]]
        if PATTERNS[sum(states)] != fields[7]:
            raise CheckError(f"{where}: pattern {fields[7]} for states {fields[3:7]}")
        for e, on in enumerate(states):
            code = codes[e + 1]
            if on:
                on_min[e] = min(on_min[e], code)
            else:
                off_max[e] = max(off_max[e], code)
        frames.append((float(time), raw, filtered, states, fields[7]))
    for e in range(4):
        if off_max[e] >= on_min[e]:
            raise CheckError(f"{path.name}: element {e + 1} has no single code threshold")
    return frames


def expected_report(frames, plan) -> tuple:
    """The report text and simulated statistics derived from the frames."""
    sensing_range = SENSING_RANGE[plan.gain]
    times = [s.time for s in plan.scenario]
    count = len(frames)
    saturated = sum(raw >= sensing_range for _, raw, _, _, _ in frames)
    on = [sum(f[3][e] for f in frames) for e in range(4)]
    patterns = {label: sum(f[4] == label for f in frames) for label in PATTERNS[:4]}
    total = math.fsum(
        (filtered - _load_at(times, plan.scenario, t).force) ** 2
        for t, _, filtered, _, _ in frames
    )
    rmse_n = math.sqrt(total / count)
    duty = [n / count for n in on]
    lines = [f"frames,{count}", f"t_first,{frames[0][0]!r}", f"t_last,{frames[-1][0]!r}",
             f"saturated_frames,{saturated}"]
    lines += [f"duty_cycle_e{e + 1},{d!r}" for e, d in enumerate(duty)]
    lines += [f"pattern_{label},{n}" for label, n in patterns.items()]
    lines.append(f"rmse_n,{rmse_n!r}")
    stats = {"frames": count, "saturated_frames": saturated, "duty_cycles": duty,
             "patterns": patterns, "rmse_n": rmse_n}
    return "\n".join(lines) + "\n", stats


def check_pass(plan, workdir) -> tuple:
    """Check every artifact of one pass.

    Returns ``(stats, failures)``: the simulated statistics of the pass
    and a list of ``(command index, message)`` for each failed check.
    """
    made_by = producers(plan)
    failures, stats, tables, models = [], {}, {}, {}
    for command in plan.commands:
        if command.label == "calibrate":
            model, table = command.outputs
            try:
                tables[model] = check_cv_table(workdir / table)
                models[model] = check_model(workdir / model, tables[model])
            except BAD_ARTIFACT as exc:
                failures.append((made_by[model], str(exc)))
    stats["selected_orders"] = [t["selected_order"] for t in tables.values()]
    estimate = next(c for c in plan.commands if c.label == "estimate")
    model_name = estimate.args[estimate.args.index("-m") + 1]
    try:
        rows, stats["adc"] = check_stream(workdir / "stream.csv", plan)
    except BAD_ARTIFACT as exc:
        failures.append((made_by["stream.csv"], str(exc)))
        return stats, failures
    if model_name not in models:
        return stats, failures
    try:
        frames = check_frames(workdir / "frames.csv", rows, models[model_name], plan.gain)
    except BAD_ARTIFACT as exc:
        failures.append((made_by["frames.csv"], str(exc)))
        return stats, failures
    text, report_stats = expected_report(frames, plan)
    stats.update(report_stats)
    try:
        if (workdir / "report.txt").read_text() != text:
            failures.append((made_by["report.txt"], "report differs from the frames"))
    except BAD_ARTIFACT as exc:
        failures.append((made_by["report.txt"], str(exc)))
    return stats, failures
