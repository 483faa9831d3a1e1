"""Start-up: ``estimate`` and ``report`` run on the standard library.

numpy is imported only inside the array code that ``simulate`` and
``calibrate`` reach, so the replay commands skip its import time. The
test modules import numpy themselves, so every command here runs as
``python -m tactsim`` in a fresh interpreter, and ``-X importtime``
lists the modules it imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tactsim
from tactsim import save_dataset, save_scenario

from conftest import accuracy_scenario

SRC = Path(tactsim.__file__).resolve().parents[1]


def python(*args, stdin=None):
    """Run the interpreter on ``args``; return its result and imported modules."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], input=stdin, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    return done, imported


def tactsim_run(*args, stdin=None):
    done, imported = python("-m", "tactsim", *map(str, args), stdin=stdin)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout, imported


def uses_numpy(imported) -> bool:
    return any(name == "numpy" or name.startswith("numpy.") for name in imported)


@pytest.fixture(scope="module")
def replay(tmp_path_factory, chain_dataset):
    """Files of one simulate -> calibrate -> estimate run, each a subprocess."""
    work = tmp_path_factory.mktemp("startup")
    paths = {name: work / name for name in
             ("scenario.csv", "dataset.csv", "model.json", "stream.csv", "frames.csv")}
    save_scenario(paths["scenario.csv"], accuracy_scenario())
    save_dataset(paths["dataset.csv"], chain_dataset)
    tactsim_run("simulate", paths["scenario.csv"], "-o", paths["stream.csv"])
    tactsim_run("calibrate", paths["dataset.csv"], "-o", paths["model.json"], "--repeats", 2)
    tactsim_run("estimate", paths["stream.csv"], "-m", paths["model.json"],
                "-o", paths["frames.csv"])
    return paths


def test_import_leaves_numpy_out():
    done, imported = python("-c", "import tactsim")
    assert done.returncode == 0, done.stderr[-2000:]
    assert "tactsim.pipeline" in imported
    assert not uses_numpy(imported)


def test_simulate_and_calibrate_still_run(replay):
    assert replay["stream.csv"].read_text().count("\n") == 154  # 0 to 16 s at 9.6 Hz
    assert '"format": "tactsim-model-v1"' in replay["model.json"].read_text()


@pytest.mark.parametrize("source", ("file", "stdin"))
def test_estimate_leaves_numpy_out(replay, source):
    stream, model = replay["stream.csv"], replay["model.json"]
    if source == "file":
        out, imported = tactsim_run("estimate", stream, "-m", model)
    else:
        out, imported = tactsim_run("estimate", "-", "-m", model, stdin=stream.read_text())
    assert out == replay["frames.csv"].read_text()
    assert not uses_numpy(imported)


@pytest.mark.parametrize("truth", (False, True))
def test_report_leaves_numpy_out(replay, truth):
    args = ("--truth", replay["scenario.csv"], "--rmse") if truth else ()
    out, imported = tactsim_run("report", replay["frames.csv"], *args)
    assert out.startswith("frames,154\n")
    assert ("rmse_n," in out) is truth
    assert not uses_numpy(imported)
