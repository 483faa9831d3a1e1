#!/usr/bin/env python3
"""tactsim benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload hold_hour --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` the run drives the ``tactsim`` CLI as subprocesses,
one at a time (a closed loop with a single client), and times each
command. With ``--trace 1`` it runs the same commands in-process through
``tactsim.cli.main``, once untraced and once with a span around every
call into a layer, and reports per-layer figures. Every run first replays
the workload at the canonical seed and checks each artifact against the
golden digests, then checks the run seed's artifacts from outside the
program and for byte determinism across passes. The last line of
standard output is one JSON object with the result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))

import artifacts  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics (all host time) and their units.
END_TO_END = {
    "simulate_s": "s",
    "estimate_s": "s",
    "report_s": "s",
    "replay_realtime_x": "x",
    "calibrate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Passes measured at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Host-speed probe: loop length, and its time on the reference host
#: (2 CPUs, Python 3.11.7, with no other load).
PROBE_LOOPS = 300_000
REFERENCE_PROBE_S = 0.030
COMMAND_TIMEOUT_S = 60
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tactsim.cli; "
                "print(time.perf_counter() - t)")


class Ledger:
    """Operations attempted and the first failure of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}
        self.peak_rss_kb = 0

    def op(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, key, message) -> None:
        self.failed.setdefault(key, message)


def _env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_command(command, workdir, ledger):
    """Run one CLI command; return ``(seconds or None, op key)``.

    The command runs under ``launch.py``, which times it and records its
    peak RSS in ``ledger.peak_rss_kb``.
    """
    key = ledger.op()
    record = workdir / f".{key}.launch.json"
    argv = [sys.executable, "-S", "-E", str(BENCH / "launch.py"), str(record),
            sys.executable, "-m", "tactsim", *command.args]
    with ExitStack() as stack:
        stdin = (stack.enter_context(open(workdir / command.stdin, "rb"))
                 if command.stdin else subprocess.DEVNULL)
        stdout = (stack.enter_context(open(workdir / command.stdout, "wb"))
                  if command.stdout else subprocess.DEVNULL)
        proc = subprocess.Popen(argv, cwd=workdir, env=_env(), stdin=stdin,
                                stdout=stdout, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            ledger.fail(key, f"{command.label} timed out")
            return None, key
    try:
        launched = json.loads(record.read_text())
        record.unlink()
    except (OSError, ValueError):
        launched = {"exit": f"launcher exited {proc.returncode}"}
    if launched["exit"] != 0:
        ledger.fail(key, f"{command.label} exited {launched['exit']}: "
                         f"{err.decode(errors='replace').strip()[-300:]}")
        return None, key
    ledger.peak_rss_kb = max(ledger.peak_rss_kb, launched["maxrss_kb"])
    return launched["seconds"], key


def host_probe() -> float:
    """Seconds this host takes for a fixed pure-Python loop, right now."""
    start = time.perf_counter()
    x = 0.0
    for i in range(PROBE_LOOPS):
        x = (x + i * 0.5) % 97.0
    return time.perf_counter() - start


def run_pass(plan, workdir, ledger, probes):
    """Run every command of ``plan``; return (timings, op keys).

    ``timings`` has ``(label, wall seconds, scaled seconds)`` for each
    command that succeeded. The host probe runs between commands, its
    times going to ``probes``; the scaled time is the wall time times
    ``REFERENCE_PROBE_S`` over the mean of the probes on either side:
    what the command would take on a host as fast as the reference.
    """
    timings, keys = [], []
    if not probes:
        probes.append(host_probe())
    for command in plan.commands:
        before = probes[-1]
        elapsed, key = run_command(command, workdir, ledger)
        probes.append(host_probe())
        keys.append(key)
        if elapsed is not None:
            scaled = elapsed * REFERENCE_PROBE_S * 2 / (before + probes[-1])
            timings.append((command.label, elapsed, scaled))
    return timings, keys


def run_in_process(commands, workdir, tactsim, ledger):
    """Run ``commands`` through ``tactsim.cli.main`` in this process.

    Returns ``(wall seconds, op keys)``. Looks ``main`` up on every call
    so that a traced (patched) version is the one run.
    """
    keys, saved, cwd = [], (sys.stdin, sys.stdout), os.getcwd()
    start = time.perf_counter()
    os.chdir(workdir)
    try:
        for command in commands:
            key = ledger.op()
            keys.append(key)
            with ExitStack() as stack:
                if command.stdin:
                    sys.stdin = stack.enter_context(open(command.stdin))
                sys.stdout = stack.enter_context(open(command.stdout or os.devnull, "w"))
                try:
                    code = tactsim.cli.main(list(command.args))
                except Exception as exc:  # recorded as a failed operation
                    code = repr(exc)
                finally:
                    sys.stdin, sys.stdout = saved
            if code != 0:
                ledger.fail(key, f"{command.label} in-process returned {code}")
    finally:
        os.chdir(cwd)
    return time.perf_counter() - start, keys


def prepare(workload, seed, workdir, tactsim):
    """Write the full and the minimal inputs; return kind -> (plan, dir, digests)."""
    sets = {}
    for kind, minimal in (("full", False), ("setup", True)):
        plan = workloads.make_plan(workload, seed, minimal)
        directory = workdir / kind
        directory.mkdir(parents=True)
        inputs = workloads.write_inputs(plan, directory, tactsim)
        sets[kind] = (plan, directory,
                      {name: artifacts.sha256(path) for name, path in sorted(inputs.items())})
    return sets


def check(plan, workdir, keys, ledger, expected=None, consistency=True):
    """Check a pass's artifacts; return (artifact digests, simulated stats).

    ``expected`` holds digests the artifacts must match: the golden ones,
    or those of the first pass with the same seed. ``consistency`` runs
    the checks that re-derive the outputs from outside the program.
    """
    stats = {}
    if consistency:
        stats, failures = artifacts.check_pass(plan, workdir)
        for index, message in failures:
            ledger.fail(keys[index], message)
    got = {}
    for name, index in artifacts.producers(plan).items():
        path = workdir / name
        if not path.is_file():
            ledger.fail(keys[index], f"{name} was not written")
            continue
        got[name] = artifacts.sha256(path)
        if expected is not None and expected.get(name) != got[name]:
            ledger.fail(keys[index], f"{workdir.name}/{name}: digest {got[name][:12]} "
                                     f"differs from {str(expected.get(name))[:12]}")
    return got, stats


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def check_golden_record(record, inputs, stats, keys, ledger, what):
    """Compare input digests and simulated stats with a golden record."""
    if record["inputs"] != inputs:
        ledger.fail(keys[0], f"{what}: generated inputs differ from the golden inputs")
    if record["stats"] != json.loads(json.dumps(stats)):
        ledger.fail(keys[0], f"{what}: simulated statistics differ from the golden record")


def golden_pass(workload, ledger, tactsim):
    """Replay the canonical seed through the CLI and check it against the goldens.

    Also warms the interpreter's bytecode cache and the file cache, so
    that the timed passes after it start from the same state.
    """
    record = load_golden().get(workload, {}).get(str(workloads.CANONICAL_SEED))
    sets = prepare(workload, workloads.CANONICAL_SEED, WORK / workload / "golden", tactsim)
    for kind, (plan, directory, inputs) in sets.items():
        _, keys = run_pass(plan, directory, ledger, [])
        if record is None:
            ledger.fail(keys[0], f"no golden digests for {workload}")
            continue
        _, stats = check(plan, directory, keys, ledger, record[kind]["artifacts"])
        check_golden_record(record[kind], inputs, stats, keys, ledger, f"golden {kind}")


class Deadline:
    """Decides whether another round is expected to end in time."""

    def __init__(self, seconds):
        self.last = time.perf_counter()
        self.end = self.last + seconds
        self.longest = 0.0

    def another(self) -> bool:
        """Note that a round just ended; True if one more fits."""
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        return now + self.longest <= self.end


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(workload, seed, seconds, ledger, tactsim):
    """Timed CLI passes at ``seed``; return (metrics, stats, digests).

    Times are medians over the passes of the host-scaled command times
    (see ``run_pass``), which take out the drift in host speed on a
    shared machine. The record keeps the raw wall times and the probes.
    """
    record = load_golden().get(workload, {}).get(str(seed))
    sets = prepare(workload, seed, WORK / workload / "run", tactsim)
    plan = sets["full"][0]
    first, stats, probes = {}, {}, []
    samples = {"simulate": [], "estimate": [], "report": [], "calibrate": [],
               "setup": [], "replay": []}
    walls = []
    clock = Deadline(seconds)
    passes = 0
    while passes == 0 or clock.another() or passes < MIN_PASSES:
        for kind, (kind_plan, directory, inputs) in sets.items():
            timings, keys = run_pass(kind_plan, directory, ledger, probes)
            walls.append([kind, *(wall for _, wall, _ in timings)])
            if passes == 0:
                expected = record[kind]["artifacts"] if record else None
                first[kind], stats[kind] = check(kind_plan, directory, keys, ledger, expected)
                if record:
                    check_golden_record(record[kind], inputs, stats[kind], keys, ledger,
                                        f"seed {seed} {kind}")
            else:
                check(kind_plan, directory, keys, ledger, first[kind], consistency=False)
            if len(timings) < len(keys):
                continue  # a command failed: the pass is not timed
            if kind == "setup":
                samples["setup"].append(sum(scaled for _, _, scaled in timings))
                continue
            for label, _, scaled in timings:
                samples[label].append(scaled)
            samples["replay"].append(sum(scaled for label, _, scaled in timings
                                         if label != "calibrate"))
        passes += 1
    replay_s = _median(samples["replay"])
    values = {
        "simulate_s": _median(samples["simulate"]),
        "estimate_s": _median(samples["estimate"]),
        "report_s": _median(samples["report"]),
        "replay_realtime_x": plan.simulated_s / replay_s if replay_s else 0.0,
        "calibrate_s": _median(samples["calibrate"]),
        "setup_s": _median(samples["setup"]),
        "peak_rss_mb": ledger.peak_rss_kb / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    timing = {"passes": passes, "scaled_s": samples, "wall_s": walls, "probe_s": probes}
    return metrics, {**timing, **stats}, first


def import_seconds(ledger):
    """Interpreter-side cost of ``import tactsim.cli`` in a fresh process."""
    key = ledger.op()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if done.returncode != 0:
        ledger.fail(key, f"import tactsim.cli failed: {done.stderr.strip()[-300:]}")
        return 0.0
    return float(done.stdout)


def measure_layers(workload, seed, seconds, ledger, tactsim):
    """Untraced and traced in-process sessions; return (metrics, stats, digests)."""
    import spans

    record = load_golden().get(workload, {}).get(str(seed))
    work = WORK / workload
    plan, directory, inputs = prepare(workload, seed, work / "run", tactsim)["full"]
    traced_dir = work / "traced"
    shutil.copytree(directory, traced_dir)
    extras = work / "extras"
    extras.mkdir()
    samples, untraced_s, traced_s = [], [], []
    first = stats = None
    clock = Deadline(seconds)
    while not samples or clock.another():
        wall, keys = run_in_process(plan.commands, directory, tactsim, ledger)
        untraced_s.append(wall)
        if first is None:
            expected = record["full"]["artifacts"] if record else None
            first, stats = check(plan, directory, keys, ledger, expected)
            if record:
                check_golden_record(record["full"], inputs, stats, keys, ledger,
                                    f"seed {seed} in-process")
        else:
            check(plan, directory, keys, ledger, first, consistency=False)
        tracer = spans.Tracer()
        with spans.traced(tracer, tactsim):
            wall, keys = run_in_process(plan.commands, traced_dir, tactsim, ledger)
            session_spans = len(tracer.name)
            # Calls outside the CLI session: the plain summary, the dataset
            # capture the inputs use, and the helpers the CLI cannot reach.
            report = workloads.Command("report", ("report", "frames.csv"))
            run_in_process([report], traced_dir, tactsim, ledger)
            workloads.write_inputs(plan, extras, tactsim)
            tactsim.calibration.synthetic_protocol_dataset(tactsim.PRESET_MODELS[2])
        traced_s.append(wall)
        check(plan, traced_dir, keys, ledger, first, consistency=False)
        layer = spans.layer_metrics(tracer, session_spans, wall)
        layer["cli.import_s"] = (import_seconds(ledger), "s")
        samples.append(layer)
    tracer.save(work / "spans.npz")
    # Times are medians over the sessions; counts repeat exactly.
    metrics = {name: (samples[-1][name][0] if unit == "count"
                      else _median([s[name][0] for s in samples]), unit)
               for name, (_, unit) in samples[0].items()}
    metrics["trace.overhead_s"] = (_median(traced_s) - _median(untraced_s), "s")
    metrics["count.scenario_steps"] = (len(plan.scenario), "count")
    adc = stats.get("adc", {"code_0": [0] * 5, "code_max": [0] * 5})  # empty if it failed
    for channel in range(5):
        for edge in ("code_0", "code_max"):
            metrics[f"count.adc_ch{channel}_{edge}"] = (adc[edge][channel], "count")
    return metrics, {"sessions": len(samples), "full": stats}, {"full": first}


def environment():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "tactsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_workload(workload, seed, seconds, trace, tactsim):
    ledger = Ledger()
    shutil.rmtree(WORK / workload, ignore_errors=True)
    golden_pass(workload, ledger, tactsim)
    measure = measure_layers if trace else measure_end_to_end
    metrics, stats, digests = measure(workload, seed, seconds, ledger, tactsim)
    result = {
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "why": workloads.WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "shape": workloads.make_plan(workload, seed).record(),
        "simulated_statistics": stats,
        "digests": digests,
        "error_rate": len(ledger.failed) / ledger.attempted,
        "failures": list(ledger.failed.values()),
        **result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{workload} seed {seed} {'traced' if trace else 'end to end'} "
          f"(record: {path.relative_to(ROOT)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'error_rate':44s} {record['error_rate']:14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for message in record["failures"][:10]:
        print(f"  FAILED: {message}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tactsim" / "__init__.py").is_file():
        print(f"bench: no tactsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tactsim.cli

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, tactsim)
        print(json.dumps(result))
        return 0
    results = {
        f"{name}.trace{trace}": run_workload(name, args.seed, args.seconds, trace, tactsim)
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
