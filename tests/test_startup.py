"""Start-up: ``simulate``, ``estimate`` and ``report`` run on the standard library.

numpy is imported only inside the calibration code that ``calibrate``
reaches, so the other three commands skip its import time, and
``simulate`` writes the same stream where numpy cannot be imported at
all, where ``calibrate`` ends in one usage-error line. ``simulate``
draws its noise and ``calibrate`` its folds from ``tactsim.rng``, so no
command imports ``numpy.random``; ``json`` is imported only where a
model file is read or written, so ``simulate`` and ``report`` skip it;
and the command-line entry point starts OpenBLAS with one thread and
runs the command with the cyclic garbage collector off. The test
modules import numpy themselves, so every command here runs as
``python -m tactsim`` in a fresh interpreter, and ``-X importtime``
lists the modules it imported.
"""

import gc
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import tactsim
from tactsim import LoadScenario, LoadStep, cli, save_dataset, save_scenario

from conftest import accuracy_scenario

SRC = Path(tactsim.__file__).resolve().parents[1]
#: Thread-count settings of the BLAS builds numpy ships with. They are
#: dropped from every child, so that only the CLI's own default is seen.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def python(*args, stdin=None, env=None):
    """Run the interpreter on ``args``; return its result and imported modules.

    The child gets this environment without ``THREAD_VARIABLES``, plus ``env``.
    The result's ``stderr`` is the child's without the ``-X importtime`` lines.
    """
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    child = {name: value for name, value in os.environ.items()
             if name not in THREAD_VARIABLES}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], input=stdin, capture_output=True,
        text=True, env={**child, "PYTHONPATH": path, **(env or {})}, timeout=120,
    )
    lines = done.stderr.splitlines(keepends=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in lines
                if line.startswith("import time:")}
    done.stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return done, imported


def tactsim_run(*args, stdin=None):
    done, imported = python("-m", "tactsim", *map(str, args), stdin=stdin)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout, imported


def uses_numpy(imported) -> bool:
    return any(name == "numpy" or name.startswith("numpy.") for name in imported)


def uses_numpy_random(imported) -> bool:
    return any(name == "numpy.random" or name.startswith("numpy.random.") for name in imported)


@pytest.fixture(scope="module")
def replay(tmp_path_factory, chain_dataset):
    """Files of one simulate -> calibrate -> estimate run, each a subprocess,
    and under ``imports`` the modules that each of the three imported."""
    work = tmp_path_factory.mktemp("startup")
    paths = {name: work / name for name in
             ("scenario.csv", "dataset.csv", "model.json", "stream.csv", "frames.csv")}
    save_scenario(paths["scenario.csv"], accuracy_scenario())
    save_dataset(paths["dataset.csv"], chain_dataset)
    _, simulated = tactsim_run("simulate", paths["scenario.csv"], "-o", paths["stream.csv"])
    _, calibrated = tactsim_run("calibrate", paths["dataset.csv"], "-o", paths["model.json"],
                                "--repeats", 2)
    _, estimated = tactsim_run("estimate", paths["stream.csv"], "-m", paths["model.json"],
                               "-o", paths["frames.csv"])
    paths["imports"] = {"simulate": simulated, "calibrate": calibrated, "estimate": estimated}
    return paths


def test_import_leaves_numpy_out():
    done, imported = python("-c", "import tactsim")
    assert done.returncode == 0, done.stderr[-2000:]
    assert "tactsim.pipeline" in imported
    assert not uses_numpy(imported)
    assert not uses_numpy_random(imported)


def test_simulate_and_calibrate_still_run(replay):
    assert replay["stream.csv"].read_text().count("\n") == 154  # 0 to 16 s at 9.6 Hz
    assert '"format": "tactsim-model-v1"' in replay["model.json"].read_text()


@pytest.mark.parametrize("command", ("simulate", "calibrate"))
def test_simulate_and_calibrate_leave_numpy_random_out(replay, command):
    imported = replay["imports"][command]
    assert uses_numpy(imported) is (command == "calibrate")
    assert "tactsim.rng" in imported
    assert not uses_numpy_random(imported), sorted(
        name for name in imported if name.startswith("numpy.random"))


def test_simulate_runs_where_numpy_cannot_be_imported(replay):
    # A None entry in sys.modules makes every later ``import numpy`` fail.
    done, imported = python("-c", "import sys; sys.modules['numpy'] = None; "
                            "from tactsim import cli; sys.exit(cli.run())",
                            "simulate", str(replay["scenario.csv"]))
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == replay["stream.csv"].read_text()
    assert not uses_numpy(imported)


@pytest.mark.parametrize("dataset", ("dataset.csv", "missing.csv"))
def test_calibrate_ends_in_one_error_line_where_numpy_cannot_be_imported(replay, dataset):
    """A usage error that names numpy, before the dataset is read: no
    traceback, and no model file."""
    model = replay["model.json"].with_name("no-numpy-model.json")
    done, _ = python("-c", "import sys; sys.modules['numpy'] = None; "
                     "from tactsim import cli; sys.exit(cli.run())",
                     "calibrate", str(replay["dataset.csv"].with_name(dataset)),
                     "-o", str(model))
    assert done.returncode == 1
    assert done.stderr == "tactsim: error: calibrate needs numpy, which cannot be imported\n"
    assert not model.exists()


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


def test_json_only_where_a_model_file_is_read_or_written(replay):
    _, reported = tactsim_run("report", replay["frames.csv"], "--truth", replay["scenario.csv"])
    imports = {**replay["imports"], "report": reported}
    assert {command: "json" in imported for command, imported in imports.items()} == {
        "simulate": False, "calibrate": True, "estimate": True, "report": False}


# Runs ``cli.run`` with ``main`` replaced by a probe that imports numpy and
# prints the variable and the number of threads the process then has.
ENTRY_PROBE = """
import os, sys
from tactsim import cli

def probe(fork=False):
    import numpy
    tasks = "/proc/self/task"
    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
    return 0

cli.main = probe
sys.exit(cli.run())
"""


def test_entry_point_starts_blas_with_one_thread():
    done, imported = python("-c", ENTRY_PROBE)
    assert done.returncode == 0, done.stderr[-2000:]
    assert uses_numpy(imported)
    value, threads = done.stdout.split()
    assert value == "1"
    if threads != "None":  # no /proc to count them on this platform
        assert threads == "1"


def test_entry_point_keeps_a_thread_count_the_user_set():
    done, _ = python("-c", ENTRY_PROBE, env={"OPENBLAS_NUM_THREADS": "2"})
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split()[0] == "2"


def test_import_leaves_the_thread_count_unset():
    done, _ = python("-c", "import os, tactsim.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "None\n"


# Runs ``cli.run`` with ``main`` replaced by a probe that prints whether the
# collector is on; after ``run`` returns, prints whether the heap is frozen.
GC_PROBE = """
import gc, sys
from tactsim import cli

def probe(fork=False):
    print(gc.isenabled())
    return 3

cli.main = probe
code = cli.run()
print(gc.get_freeze_count() > 0)
sys.exit(code)
"""


def test_entry_point_runs_the_command_without_the_collector():
    done, _ = python("-c", GC_PROBE)
    assert (done.returncode, done.stderr) == (3, "")
    assert done.stdout == "False\nTrue\n"


def test_import_leaves_the_collector_running():
    done, _ = python("-c", "import gc, tactsim.cli; print(gc.isenabled(), gc.get_freeze_count())")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "True 0\n"


def test_main_in_process_leaves_the_environment(replay, capsys, monkeypatch):
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ), gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["report", str(replay["frames.csv"])]) == 0
    assert capsys.readouterr().out.startswith("frames,154\n")
    assert (dict(os.environ), gc.isenabled(), gc.get_freeze_count()) == before


def test_entry_point_exits_as_main_does(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("v,force_n\n" + "2.0,0.1\n" * 40)  # one signal: every fold is singular
    # a usage error, a data error and a singular fit -> the exit code each gives
    cases = {(): 1, ("report", str(tmp_path / "missing.csv")): 2,
             ("calibrate", str(flat), "--orders", "2"): 3}
    for argv, code in cases.items():
        assert cli.main(list(argv)) == code
        out, err = capsys.readouterr()
        assert (out, err.count("\n")) == ("", 1) and err.startswith("tactsim: error: "), err
        done, _ = python("-m", "tactsim", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_command_quietly(tmp_path):
    scenario = tmp_path / "scenario.csv"
    save_scenario(scenario, LoadScenario((LoadStep(0.0, 0.5, frozenset({1})),
                                          LoadStep(3600.0, 0.0, frozenset()))))
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    with subprocess.Popen([sys.executable, "-m", "tactsim", "simulate", str(scenario)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path}) as child:
        assert child.stdout.readline().startswith(b"0.0,")  # of about 1 MB of lines
        child.stdout.close()
        assert child.wait(timeout=120) == -signal.SIGPIPE
        assert child.stderr.read() == b""
