"""Drive the whole pipeline through the command-line interface.

Writes every artifact into a temporary directory, removed at the end:
scenario and dataset CSVs, the fitted model, the simulated sample
stream, the frame records, and the final report. Demonstrates that
re-running a command with the same seed reproduces its output byte for
byte.

Run from the repository root:  python demos/04_cli_walkthrough.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tactsim import capture_protocol_dataset, default_config, save_dataset


def cli(*args):
    command = [sys.executable, "-m", "tactsim", *map(str, args)]
    print("$ tactsim " + " ".join(map(str, args)))
    result = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    if result.stdout:
        print(result.stdout, end="")
    if result.returncode != 0:
        print(result.stderr, end="")
        raise SystemExit(result.returncode)
    return result


with tempfile.TemporaryDirectory(prefix="tactsim-demo-") as tmp:
    work = Path(tmp)
    print(f"working in {work}\n")

    # 1) A calibration dataset captured through the simulated chain.
    save_dataset(work / "calibration.csv", capture_protocol_dataset(default_config(), seed=7))

    # 2) A scenario file: 20, 50, 100 gw pressed on quadrant 1.
    (work / "scenario.csv").write_text(
        "t,force_n,quadrants\n"
        "0.0,0.0,\n"
        "1.0,0.196,1\n"
        "6.0,0.49,1\n"
        "11.0,0.98,1\n"
        "16.0,0.0,\n"
    )

    # 3) calibrate -> simulate -> estimate -> report
    cli("calibrate", work / "calibration.csv", "-o", work / "model.json", "--seed", "7")
    cli("simulate", work / "scenario.csv", "-o", work / "stream.csv", "--seed", "3")
    cli("estimate", work / "stream.csv", "-m", work / "model.json", "-o", work / "frames.csv")
    cli("report", work / "frames.csv", "--truth", work / "scenario.csv", "--rmse")

    # 4) Determinism: the same seed gives the same bytes.
    cli("simulate", work / "scenario.csv", "-o", work / "stream2.csv", "--seed", "3")
    same = (work / "stream.csv").read_bytes() == (work / "stream2.csv").read_bytes()
    print(f"\nre-run with the same seed is byte-identical: {same}")
