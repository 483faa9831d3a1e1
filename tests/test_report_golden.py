"""Regression gate: ``tactsim report`` keeps its exact output bytes.

Each case writes a seeded frame-record file, summarizes it through the
CLI and compares the sha256 of the printed summary with a digest
recorded from the per-frame summary (one ``parse_frame`` per line). The
cases cover reports with and without a ground-truth scenario and with
``--rmse``, the two published gains and one off-table gain, saturated
frames, all four patterns (and tails whose pattern does not match their
states), ``-0.0`` forces, files longer than one block, a single frame
and files without frames.

Some files also carry comments, blank lines, padded fields and
non-canonical number spellings, so the tolerant paths are replayed too.
"""

import hashlib
import random

import pytest

from tactsim import LoadScenario, LoadStep, range_for_gain, save_scenario
from tactsim.cli import main

RATE = 9.6
PATTERNS = ("none", "point", "line", "area", "area")


def _force(rnd: random.Random, sensing_range: float) -> float:
    return rnd.choice((0.0, -0.0, sensing_range, sensing_range,
                       rnd.uniform(0.0, sensing_range), rnd.uniform(0.0, sensing_range)))


def frames_text(seed: int, frames: int, gain: float, style: str) -> str:
    """Frame lines of one case; ``style`` is ``plain``, ``messy`` or ``backward_crlf``."""
    rnd = random.Random(seed)
    sensing_range, _ = range_for_gain(gain)
    messy, backward = style == "messy", style == "backward_crlf"
    lines = ["# t,raw_n,filtered_n,e1,e2,e3,e4,pattern"] if messy else []
    tick = 0
    for k in range(frames):
        states = [rnd.random() < 0.4 for _ in range(4)]
        pattern = PATTERNS[sum(states)]
        if rnd.random() < 0.05:
            pattern = rnd.choice(PATTERNS)
        if not backward:
            tick = k
        elif rnd.random() >= 0.05:  # else the time of the line before, again
            tick = k - k % 8 + 7 - k % 8  # runs of eight ticks, each run backwards
        fields = [repr(tick / RATE), repr(_force(rnd, sensing_range)),
                  repr(_force(rnd, sensing_range)),
                  *("1" if s else "0" for s in states), pattern]
        if messy:
            if rnd.random() < 0.1:
                fields = [f" {f}\t" for f in fields]
            if rnd.random() < 0.1:
                fields[1] = f"{float(fields[1]):.3e}"
                fields[2] = f"{float(fields[2])}0"
            if rnd.random() < 0.03:
                lines.append("")
            if rnd.random() < 0.02:
                lines.append(f"# block {k}")
        lines.append(",".join(fields))
    end = "\r\n" if backward else "\n"
    return "".join(line + end for line in lines)


def truth_scenario(seed: int, frames: int) -> LoadScenario:
    rnd = random.Random(seed + 1000)
    last = (frames + 5) / RATE
    times = sorted({0.0, *(rnd.uniform(0.0, last) for _ in range(frames // 20 + 1))})
    return LoadScenario(tuple(
        LoadStep(t, rnd.choice((0.0, 0.3, 0.9, 1.2, 2.0)), frozenset({1}))
        for t in times))


# name -> (gain, seed, frames, style, truth, --rmse)
CASES = {
    "gain41_plain_600": (41.36, 1, 600, "plain", False, False),
    "gain41_truth_rmse_700": (41.36, 2, 700, "plain", True, True),
    "gain22_truth_500": (22.0, 3, 500, "plain", True, False),
    "gain120_plain_2049": (120.0, 4, 2049, "plain", False, False),
    "gain22_messy_truth_rmse_1100": (22.0, 5, 1100, "messy", True, True),
    "gain41_messy_plain_900": (41.36, 6, 900, "messy", False, False),
    "one_frame_truth": (41.36, 7, 1, "plain", True, True),
    "one_frame_plain": (22.0, 8, 1, "messy", False, False),
    "empty": (41.36, 9, 0, "plain", False, False),
    "comments_only": (41.36, 10, 0, "messy", False, False),
    "gain22_backward_crlf_truth_rmse_1500": (22.0, 11, 1500, "backward_crlf", True, True),
}

DIGESTS = {
    # Recorded from the per-frame summary, before block parsing.
    "comments_only": "5d3ebe5ada579a6a1d5b0b2b4c14efa981c09e82ed928ac74f5f842d5c907de7",
    "empty": "5d3ebe5ada579a6a1d5b0b2b4c14efa981c09e82ed928ac74f5f842d5c907de7",
    "gain120_plain_2049": "5757f054e7573906dff5688318e62d0beea56a29ddd5f34bc4fb6aec6c0a4e6e",
    "gain22_messy_truth_rmse_1100": "c67884fc20b8305829f7f1910a2499f8e9549a7d3c7be68248e5456f16955750",
    "gain22_truth_500": "773e42196a570f8bd4521f9c76024544601041dbdef73f4d8c1e34fd3b1efe1c",
    "gain41_messy_plain_900": "59f3883dbab151882cbb7431788b0dc1482db82f91d59095dc3f703ad09628e1",
    "gain41_plain_600": "bdc5bedfc76730403480b7ba80c0e79ed858d7b47d159e4163bd6052ff8f863c",
    "gain41_truth_rmse_700": "f0a27c80fb6b4534273740773a83f2d0ab578d8045629b56c42f4b60ca24d229",
    "one_frame_plain": "fe1959f0284d2a2e99b0e1827d905bee99593e14fdc9a4f69bc805e6b97fc6b0",
    "one_frame_truth": "8c47c79db65ecaad1ef870a705a5442a9eaa4281f92b898ea98104ec16feffc0",
    # Recorded from the line-by-line count, before blocks whose times go back were counted whole.
    "gain22_backward_crlf_truth_rmse_1500":
        "1ce355b382fcdca2659681e7195b79bd29f6f57851e4fb1522da2ca7149fc16a",
}


def report_text(name: str, tmp_path, capsys) -> str:
    """What ``tactsim report`` prints for one case."""
    gain, seed, frames, style, truth, want_rmse = CASES[name]
    frames_path = tmp_path / "frames.csv"
    frames_path.write_bytes(frames_text(seed, frames, gain, style).encode())
    args = ["report", str(frames_path), "--gain", repr(gain)]
    if truth:
        scenario_path = tmp_path / "scenario.csv"
        save_scenario(scenario_path, truth_scenario(seed, frames))
        args += ["--truth", str(scenario_path)]
    if want_rmse:
        args.append("--rmse")
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, tmp_path, capsys):
    text = report_text(name, tmp_path, capsys)
    assert text.startswith(f"frames,{CASES[name][2]}\n")
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
