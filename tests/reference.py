"""The paper's chain, tick by tick: the one reference of each command's output.

``stream`` gives ``simulate``'s lines, ``frames`` ``estimate``'s and
``summary`` ``report``'s text. Each calls only the per-value stage
functions, every channel at every tick, with no tables, memos, runs or
bisections and nothing from ``pipeline``, so no fast path is checked
against itself. As a script, ``python tests/reference.py simulate
SCENARIO --seed N`` writes the stream of ``tactsim simulate SCENARIO
--seed N`` under the default config.
"""

import argparse
import math
import sys
from collections import deque
from dataclasses import replace

from tactsim import (
    adc_sample,
    amplify,
    apply_load,
    bridge_output,
    classify_pattern,
    default_config,
    estimate_force,
    load_scenario,
    moving_average,
)
from tactsim.config import channel_signal
from tactsim.errors import UsageError
from tactsim.estimator import PATTERNS
from tactsim.units import rmse


def linear_hold(scenario, time: float):
    """Zero-order hold by definition: the last step at or before ``time``."""
    current = scenario.steps[0]
    for step in scenario.steps:
        if step.time <= time:
            current = step
    return current.force, current.quadrants


def stream(cfg, scenario, seed: int):
    """The stream's lines: at each tick, ``apply_load``, then each channel's
    bridge, amplifier and ADC on the next of numpy's ``default_rng(seed)``
    draws, five a tick; each element's bridge has equal arms at its rest."""
    import numpy as np  # only here, so that the other references run without numpy
    rate = cfg.adc.sample_rate
    ticks = max(math.floor(scenario.end_time * rate + 1e-9) + 1, 0)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, (ticks, 5)).tolist()
    bridges = [cfg.bridge, *(replace(cfg.bridge, r1=e.rest_resistance, r2=e.rest_resistance,
                                     r3=e.rest_resistance, rx_rest=e.rest_resistance)
                             for e in cfg.elements)]
    for k, draws in enumerate(noise):
        time = k / rate
        fabric, elements = apply_load(scenario, cfg.fabric, cfg.elements, time)
        rises = [fabric, *(r - e.rest_resistance for r, e in zip(elements, cfg.elements))]
        c0, c1, c2, c3, c4 = (adc_sample(cfg.adc, amplify(bridge, bridge_output(bridge, rise), n))
                              for bridge, rise, n in zip(bridges, rises, draws))
        yield f"{time!r},{c0:d},{c1:d},{c2:d},{c3:d},{c4:d}\n"


def frames(cfg, est_cfg, stream_lines):
    """The frame line of each of ``stream_lines``, canonical sample lines, lazily:
    the clamped model force of the fabric's signal, ``moving_average`` of
    the last ``filter_window`` forces, and each element on where its signal
    meets its threshold."""
    window = deque(maxlen=est_cfg.filter_window)
    for line in stream_lines:
        time, *codes = line.split(",")
        signals = [channel_signal(cfg, int(code)) for code in codes]
        window.append(estimate_force(est_cfg, signals[0]))
        on = [s >= t for s, t in zip(signals[1:], est_cfg.element_thresholds)]
        states = ",".join("1" if state else "0" for state in on)
        yield (f"{float(time)!r},{window[-1]!r},{moving_average(window)!r},{states},"
               f"{classify_pattern(on)}\n")


def summary(frame_lines, sensing_range: float, truth=None) -> str:
    """``report``'s text, without its last newline, of canonical frame lines;
    with ``truth``, the RMSE of their filtered forces against ``linear_hold``."""
    count = saturated = 0
    times, on_counts, pattern_counts = [], [0, 0, 0, 0], dict.fromkeys(PATTERNS, 0)
    estimates, true_forces = [], []
    for line in frame_lines:
        time, raw, filtered, *states, pattern = line.strip().split(",")
        count += 1
        times.append(float(time))
        saturated += float(raw) >= sensing_range
        for index, state in enumerate(states):
            on_counts[index] += state == "1"
        pattern_counts[pattern] += 1
        if truth is not None:
            estimates.append(float(filtered))
            true_forces.append(linear_hold(truth, float(time))[0])
    lines = [f"frames,{count}"]
    if count:
        lines += [f"t_first,{times[0]!r}", f"t_last,{times[-1]!r}",
                  f"saturated_frames,{saturated}"]
        lines += [f"duty_cycle_e{i},{on / count!r}" for i, on in enumerate(on_counts, start=1)]
        lines += [f"pattern_{label},{pattern_counts[label]}" for label in PATTERNS]
    if truth is not None:
        if not count:
            raise UsageError("cannot compute RMSE of an empty frame stream")
        lines.append(f"rmse_n,{rmse(estimates, true_forces)!r}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=["simulate"])
    parser.add_argument("scenario", help="scenario CSV (t,force_n,quadrants)")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.stdout.writelines(stream(default_config(), load_scenario(args.scenario), args.seed))


if __name__ == "__main__":
    main()
