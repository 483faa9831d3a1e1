"""Regression gate: ``tactsim estimate`` keeps its exact output bytes.

Each case writes a seeded sample stream, replays it through the CLI and
compares the sha256 of the frame records with a digest recorded from the
per-tick estimator (one model evaluation per sample). The cases cover
the two published gains and one off-table gain, volts and counts, 8-,
10- and 12-bit ADCs, filter windows 1, 4 and 7, model orders 1-5 (one
model that clamps at 0 and one that clamps at the sensing range), and
stream input from a file and from stdin.

The streams hold each channel's code for random runs, so the filter sees
settled windows, and they carry a comment, blank lines, padded fields
and float-form codes, so the parser's tolerant paths are replayed too.
"""

import hashlib
import io
import random

import pytest

from tactsim import PolynomialModel, save_model
from tactsim.cli import main

RATE = 9.6
FULL_SCALE = 5.0

#: Force models in volts, f(v) = a0 + a1 v + ...; counts cases rescale
#: them so the same curve spans the code range.
MODELS = {
    1: (-0.05, 0.3),
    # negative below about 1.8 V: clamps at 0
    2: (-0.2, -0.1, 0.08),
    # passes every sensing range below 2 V: clamps at the range
    3: (0.0, 0.5, 0.2, 0.05),
    # -0.0 at code 0, so the filter sees -0.0 beside 0.0
    4: (-0.0, -0.2, 0.3, -0.05, 0.003),
    5: (0.0603, 0.0189, -0.0015, 0.0041, -0.000539, 0.00002),
}

# name -> (gain, units, bits, window, model order, input, seed, ticks)
CASES = {
    "gain41_volts_8bit_w4_order1_file": (41.36, "volts", 8, 4, 1, "file", 1, 600),
    "gain22_volts_8bit_w4_order2_clamp0_stdin": (22.0, "volts", 8, 4, 2, "stdin", 2, 600),
    "gain120_volts_10bit_w1_order3_clamprange_file": (
        120.0, "volts", 10, 1, 3, "file", 3, 500),
    "gain41_counts_8bit_w7_order4_stdin": (41.36, "counts", 8, 7, 4, "stdin", 4, 700),
    "gain22_counts_12bit_w4_order5_file": (22.0, "counts", 12, 4, 5, "file", 5, 600),
    "gain120_counts_10bit_w7_order1_stdin": (120.0, "counts", 10, 7, 1, "stdin", 6, 500),
    "gain41_volts_12bit_w1_order2_clamp0_file": (41.36, "volts", 12, 1, 2, "file", 7, 500),
    "gain22_volts_10bit_w7_order3_clamprange_stdin": (
        22.0, "volts", 10, 7, 3, "stdin", 8, 600),
    "gain41_counts_12bit_w1_order5_stdin": (41.36, "counts", 12, 1, 5, "stdin", 9, 500),
    "gain120_volts_8bit_w4_order4_file": (120.0, "volts", 8, 4, 4, "file", 10, 600),
}

DIGESTS = {
    # Recorded from the per-tick estimator, before the code tables.
    "gain120_counts_10bit_w7_order1_stdin": "54be3530dbfc06300648e3cf80778b20a42fbbc422a903fd862bd633637a02ec",
    "gain120_volts_10bit_w1_order3_clamprange_file": "c038d38d3519961920bc7c8a76afd2b1b41dff6018ddfd1a6e5a52838a626e72",
    "gain120_volts_8bit_w4_order4_file": "25d1e0a1f781770e53f441243e5fc7ed7eac766c9abe544ac3f656cfe2f7225c",
    "gain22_counts_12bit_w4_order5_file": "21df8fbecf1492b2e9fe95012ac11acdd3c57dc426a4db49b83109a69be0d782",
    "gain22_volts_10bit_w7_order3_clamprange_stdin": "4ce8119528d7bd7c5ee27dd398da7f4d99090b4df9bc4938b7b49c50bcf416e7",
    "gain22_volts_8bit_w4_order2_clamp0_stdin": "2b16bb418a6ea8fee2eee96ebd7d664fa47c914c35a53804e2b61f9b011f0f70",
    "gain41_counts_12bit_w1_order5_stdin": "7827649b943ce3638e598ad4ed5f3563a8378bfbaba22686f603634bab6bcf78",
    "gain41_counts_8bit_w7_order4_stdin": "6eb9f8ee10a46067c55d631d2100cd193a1d5ff0497187602ed4cf6cfa7249cb",
    "gain41_volts_12bit_w1_order2_clamp0_file": "1df257816ca3b36f523d4241957cd8a5825407b778a31ede34749513fccca70c",
    "gain41_volts_8bit_w4_order1_file": "282d5f922d2fb34a3f31e4e72dff40de0affefe5e9f27c51c6c46b3113e80dab",
}


def _model(order: int, units: str, bits: int) -> PolynomialModel:
    coefficients = MODELS[order]
    if units == "counts":
        volts_per_code = FULL_SCALE / ((1 << bits) - 1)
        coefficients = tuple(a * volts_per_code ** k for k, a in enumerate(coefficients))
    return PolynomialModel(coefficients, units)


def _held_codes(rnd: random.Random, ticks: int, max_code: int, jitter: bool):
    """Codes held for random runs of 1-30 ticks, with optional one-code noise."""
    codes = []
    while len(codes) < ticks:
        level = rnd.choice((0, max_code, rnd.randint(0, max_code)))
        for _ in range(rnd.randint(1, 30)):
            code = level
            if jitter and rnd.random() < 0.3:
                code = min(max(level + rnd.choice((-1, 1)), 0), max_code)
            codes.append(code)
    return codes[:ticks]


def stream_text(seed: int, ticks: int, bits: int) -> str:
    rnd = random.Random(seed)
    max_code = (1 << bits) - 1
    columns = [_held_codes(rnd, ticks, max_code, jitter=(ch == 0)) for ch in range(5)]
    lines = ["# t,v0,v1,v2,v3,v4"]
    for k in range(ticks):
        fields = [repr(k / RATE), *(str(col[k]) for col in columns)]
        if rnd.random() < 0.1:
            fields = [f"{f}.0" if "." not in f else f for f in fields]
        if rnd.random() < 0.1:
            fields = [f" {f}\t" for f in fields]
        if rnd.random() < 0.02:
            lines.append("")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def frames_text(name: str, tmp_path, monkeypatch, capsys) -> str:
    """Frame records ``tactsim estimate`` writes for one case."""
    gain, units, bits, window, order, source, seed, ticks = CASES[name]
    config_path = tmp_path / "tactsim.cfg"
    config_path.write_text(f"gain = {gain!r}\nsignal_units = {units}\nadc_bits = {bits}\n")
    model_path = tmp_path / "model.json"
    save_model(model_path, _model(order, units, bits))
    text = stream_text(seed, ticks, bits)
    args = ["estimate", "-m", str(model_path), "--config", str(config_path),
            "--window", str(window)]
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main([*args, "-"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out
    stream_path = tmp_path / "stream.csv"
    stream_path.write_text(text)
    out_path = tmp_path / "frames.csv"
    code = main([*args, str(stream_path), "-o", str(out_path)])
    assert code == 0, capsys.readouterr().err
    return out_path.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_frames_digest(name, tmp_path, monkeypatch, capsys):
    text = frames_text(name, tmp_path, monkeypatch, capsys)
    assert text.count("\n") == CASES[name][-1]
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
