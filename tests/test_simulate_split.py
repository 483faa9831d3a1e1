"""``simulate`` shares its blocks with a forked worker, and keeps every byte.

From the ``tactsim`` entry point, on a host with ``os.fork`` and two
usable CPUs, a stream of at least ``cli.FORK_BLOCKS`` blocks is written
by two processes: this one the even blocks, a forked worker the odd
ones, each starting its generator at its own block. The stream must be
the one a run pinned to one CPU writes, and the one ``cli.main`` writes
in process, where it never forks. No worker may outlive its command,
and a worker that fails must fail the command.
"""

import errno
import os
import signal
import subprocess
import sys
import time
from itertools import chain, zip_longest
from pathlib import Path
from unittest import mock

import pytest

import tactsim
from tactsim import LoadScenario, LoadStep, cli, default_config, pipeline, save_scenario
from tactsim.pipeline import BLOCK_TICKS, simulate_blocks, simulate_plan, tick_count

SRC = Path(tactsim.__file__).resolve().parents[1]
CAN_FORK = hasattr(os, "fork") and cli._usable_cpus() >= 2
#: Scenario end times of 3, 4 (the last one full), 5 and 34 blocks.
ENDS = {3: 300.0, 4: 4095 / 9.6, 5: 500.0, 34: 3600.0}

#: ``cli.run`` with ``os.fork`` counted; the count goes to stderr after the command.
#: A first argument ``one-cpu`` pins the process to CPU 0 before the command runs.
FORK_PROBE = """
import os, sys
from tactsim import cli

if sys.argv.pop(1) == "one-cpu":
    os.sched_setaffinity(0, {0})
forks, fork = [], os.fork

def counted():
    forks.append(1)
    return fork()

os.fork = counted
code = cli.run()
sys.stderr.write(f"forks {len(forks)}\\n")
sys.exit(code)
"""


def python(*args):
    """Run the interpreter on ``args`` with tactsim on its path; its result."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def scenario_file(directory, end):
    """Presses of a few loads, one every 37 s, then a release at ``end``."""
    loads = [(0.5, {1}), (1.2, {1, 2}), (0.0, set()), (0.3, {2, 3}), (2.5, {1, 2, 3, 4})]
    steps = [LoadStep(float(t), force, frozenset(quadrants))
             for t, (force, quadrants) in zip(range(0, int(end), 37), 100 * loads)]
    path = directory / f"scenario-{end!r}.csv"
    save_scenario(path, LoadScenario((*steps, LoadStep(end, 0.0, frozenset()))))
    return path


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("output", ("stdout", "-o"))
@pytest.mark.parametrize("blocks", sorted(ENDS))
def test_split_stream_is_the_one_cpu_and_in_process_stream(tmp_path, capsys, blocks, output):
    scenario = scenario_file(tmp_path, ENDS[blocks])
    ticks = tick_count(9.6, ENDS[blocks])
    assert -(-ticks // BLOCK_TICKS) == blocks
    args = ["simulate", str(scenario), "--seed", "7411"]
    streams, forks = [], []
    for one_cpu in (False, True):
        target = tmp_path / f"stream-{one_cpu}.csv"
        done = python("-c", FORK_PROBE, "one-cpu" if one_cpu else "any-cpu", *args,
                      *(("-o", target) if output == "-o" else ()))
        assert done.returncode == 0, done.stderr[-2000:]
        *errors, count = done.stderr.decode().splitlines()
        assert errors == []
        forks.append(count)
        streams.append(target.read_bytes() if output == "-o" else done.stdout)
    in_process = tmp_path / "in-process.csv"
    assert cli.main([*args, "-o", str(in_process)]) == 0
    assert capsys.readouterr() == ("", "")
    streams.append(in_process.read_bytes())
    assert streams[0].count(b"\n") == ticks
    assert streams[0] == streams[1] == streams[2]
    split = CAN_FORK and blocks >= cli.FORK_BLOCKS
    assert forks == [f"forks {int(split)}", "forks 0"]


def test_shared_blocks_are_the_blocks_of_one_generator():
    """Blocks taken at a stride by separate calls, put back in order, are
    every block of one call, whatever the block size."""
    cfg, scenario = default_config(), LoadScenario((
        LoadStep(0.0, 0.7, frozenset({1, 4})), LoadStep(2.3, 0.0, frozenset()),
        LoadStep(3.1, 1.9, frozenset({2})), LoadStep(9.0, 0.0, frozenset())))
    for block in (1, 3, 7, 1024):
        with mock.patch.object(pipeline, "BLOCK_TICKS", block):
            expected = list(simulate_blocks(cfg, scenario, seed=3))
            blocks, count = simulate_plan(cfg, scenario, seed=3)
            assert count == len(expected)
            for stride in (1, 2, 3):
                shares = [blocks(offset, stride) for offset in range(stride)]
                taken = [b for b in chain.from_iterable(zip_longest(*shares)) if b is not None]
                assert taken == expected, (block, stride)


def test_main_in_process_never_forks(tmp_path, capsys):
    scenario = scenario_file(tmp_path, ENDS[34])
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert cli.main(["simulate", str(scenario)]) == 0
    assert capsys.readouterr().out.count("\n") == tick_count(9.6, ENDS[34])


def failing_plan(how):
    """``simulate_plan`` whose worker share ends after two of its blocks."""
    def plan(cfg, scenario, seed=None):
        blocks, count = simulate_plan(cfg, scenario, seed=seed)

        def shared(offset=0, stride=1):
            for taken, block in enumerate(blocks(offset, stride)):
                if offset == 1 and taken == 2:
                    if how == "raises":
                        raise RuntimeError("the worker fails")
                    os.kill(os.getpid(), signal.SIGKILL)
                yield block

        return shared, count
    return plan


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
# Python 3.12 warns of a fork in a process with threads: this test process has
# the BLAS threads of the numpy other tests import, which the command never has.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
@pytest.mark.parametrize("how", ("raises", "is killed"))
def test_a_failed_worker_fails_the_command(tmp_path, capsys, monkeypatch, how):
    """One error line and a non-zero exit, after the blocks before the
    worker's first missing one (its third, block 6)."""
    scenario = scenario_file(tmp_path, ENDS[34])
    out = tmp_path / "stream.csv"
    monkeypatch.setattr(cli, "_may_fork", True)
    monkeypatch.setattr(cli, "simulate_plan", failing_plan(how))
    assert cli.main(["simulate", str(scenario), "-o", str(out)]) == 2
    ended = "exited with status 1" if how == "raises" else f"was killed by signal {int(signal.SIGKILL)}"
    assert capsys.readouterr() == (
        "", f"tactsim: error: simulate's worker process {ended} before block 6 of 34\n")
    assert out.read_text().count("\n") == 5 * BLOCK_TICKS


def only_zombies(pgid) -> bool:
    """Whether every process of group ``pgid`` that /proc lists has exited
    and waits to be reaped (state Z); False where there is no /proc."""
    if not os.path.isdir("/proc"):
        return False
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:  # gone since the listing
            continue
        state, _, group = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            return False
    return True


@pytest.mark.parametrize("call, failure", (
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ("fork", OSError(errno.ENOMEM, "Cannot allocate memory")),
    ("pipe", OSError(errno.EMFILE, "Too many open files"))),
    ids=("fork-EAGAIN", "fork-ENOMEM", "pipe-EMFILE"))
def test_a_command_that_cannot_fork_writes_the_stream_alone(tmp_path, capsys, monkeypatch,
                                                            call, failure):
    """Where no worker can be had, for want of a process, memory or a
    file descriptor, the command writes every block itself, exits 0 and
    leaves no end of a pipe open."""
    scenario = scenario_file(tmp_path, ENDS[5])
    args = ["simulate", str(scenario), "--seed", "7411", "-o"]
    assert cli.main([*args, str(tmp_path / "alone.csv")]) == 0
    monkeypatch.setattr(cli, "_may_fork", True)
    pipes, make_pipe = [], os.pipe

    def pipe():
        if call == "pipe":
            raise failure
        pipes.append(make_pipe())
        return pipes[-1]

    with mock.patch.object(os, "pipe", pipe), \
            mock.patch.object(os, "fork", side_effect=failure) as fork:
        assert cli.main([*args, str(tmp_path / "stream.csv")]) == 0
    assert fork.call_count == len(pipes) == (call == "fork")
    for fd in chain.from_iterable(pipes):
        with pytest.raises(OSError, match="Bad file descriptor"):
            os.fstat(fd)
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "stream.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def group_empties(pgid, seconds=10.0) -> bool:
    """Whether process group ``pgid`` has no running process left within
    ``seconds``. An orphaned worker that has exited counts as gone, though
    it stays in the group until the host's init reaps it."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if only_zombies(pgid):
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups here")
@pytest.mark.parametrize("end", ("runs to the end", "stdout closed", "parent killed"))
def test_no_worker_outlives_its_command(tmp_path, end):
    """The command runs in a session of its own; once it is gone, so is its group."""
    scenario = scenario_file(tmp_path, ENDS[34])
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    with subprocess.Popen([sys.executable, "-m", "tactsim", "simulate", str(scenario)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path},
                          start_new_session=True) as child:
        assert child.stdout.readline().startswith(b"0.0,")
        if end == "runs to the end":
            assert child.stdout.read().count(b"\n") == tick_count(9.6, ENDS[34]) - 1
            assert child.wait(timeout=120) == 0
        elif end == "stdout closed":
            child.stdout.close()
            assert child.wait(timeout=120) == -signal.SIGPIPE
        else:
            child.kill()
            assert child.wait(timeout=120) == -signal.SIGKILL
        assert group_empties(child.pid)
        assert child.stderr.read() == b""
