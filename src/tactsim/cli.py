"""Command-line interface: simulate, calibrate, estimate, report.

Exit codes: 0 success, 1 usage, 2 data or parse failure, 3 numerical
(singular fit). Every command is deterministic given its inputs and
seed; re-runs are byte-identical.
"""

import argparse
import gc
import math
import os
import signal
import sys
from contextlib import nullcontext
from dataclasses import replace

from .calibration import (
    cross_validate,
    fit_polynomial,
    load_dataset,
    load_model,
    save_model,
)
from .config import ToolkitConfig, default_config, load_config, make_estimator_config
from .errors import ConfigError, ToolkitError, UsageError
from .estimator import range_for_gain
from .pipeline import estimate_lines, simulate_plan, summarize_lines
from .sensor import load_scenario
from .streams import format_sample_block, open_input, read_float, read_int

# The per-item paths each block path reproduces; bench/spans.py traces them here.
from .estimator import format_frame, parse_frame  # noqa: F401
from .pipeline import estimate_frames, simulate_samples, summarize_frames  # noqa: F401
from .streams import read_samples, write_samples  # noqa: F401


#: The arguments that name a command's input files; an error calls each by this name.
_INPUTS = ("config", "scenario", "dataset", "stream", "model", "frames", "truth")

#: The fewest blocks for which ``simulate`` forks. A fork, pipe and reap cost
#: 1.7-2.5 ms, a hold_hour block about 2 ms of work; measured, the fork lost
#: time at 3 blocks and saved it at 4 (CHANGES.md). These figures assume two
#: CPUs that run in parallel: where two processes take twice one's time, the
#: fork only adds its cost (ROADMAP).
FORK_BLOCKS = 4


def _check_output(path, inputs) -> None:
    """A UsageError if the file at ``-o`` ``path`` is one of ``inputs``, ``(name,
    path)`` pairs: the file at that path, or for ``-`` stdin's, where stdin has
    a file descriptor. Checked before any file is read or written."""
    if path is None or path == "-" or not os.path.exists(path):
        return
    written = os.stat(path)
    for name, source in inputs:
        try:
            read = os.fstat(sys.stdin.fileno()) if source == "-" else os.stat(source)
        except (AttributeError, OSError, ValueError):  # no stdin, one in memory, or no file
            continue
        if os.path.samestat(read, written):
            raise UsageError(f"-o {path} is the input {name}, which writing would erase")


def _output(path):
    """The file at ``path`` to write, or stdout for ``-`` or no path."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w")


def cmd_simulate(cfg: ToolkitConfig, scenario_path, output_path=None, fork=False) -> None:
    """Run a scenario through the sensor chain and write the sample stream,
    with a forked worker (``_write_forked``) if ``fork`` allows one."""
    blocks, count = simulate_plan(cfg, load_scenario(scenario_path))
    with _output(output_path) as out:
        if not (fork and count >= FORK_BLOCKS and _write_forked(out, blocks, count)):
            for times, rows in blocks():
                out.write(format_sample_block(times, rows))


def _write_forked(out, blocks, count) -> bool:
    """Write the ``count`` blocks of ``blocks``, the odd ones spelled by a
    forked worker; False, with nothing written, if no pipe or worker can be had.

    The worker sends the text of each block of ``blocks(1, 2)`` through a
    pipe, after its length; this process writes each of ``blocks(0, 2)``,
    then the worker's next. A worker that fails or is killed is a
    ChildProcessError, after the blocks before its first missing one. If
    this process fails, it kills the worker; if it is killed, the
    worker's next write to the pipe ends it.
    """
    try:
        read_end, write_end = os.pipe()
    except OSError:  # no file descriptor to spare
        return False
    try:
        pid = os.fork()
    except OSError:  # no process or memory to spare (EAGAIN, ENOMEM)
        os.close(read_end)
        os.close(write_end)
        return False
    if pid == 0:  # the worker
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                for times, rows in blocks(1, 2):
                    text = format_sample_block(times, rows).encode()
                    pipe.write(len(text).to_bytes(8, "little") + text)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    missing = None  # the first of the worker's blocks not received, numbered from 1
    try:
        with open(read_end, "rb") as pipe:
            for number, (times, rows) in zip(range(2, count + 2, 2), blocks(0, 2)):
                out.write(format_sample_block(times, rows))
                if number <= count:  # the worker's next block
                    if (text := _receive(pipe)) is None:
                        missing = number
                        break
                    out.write(text)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if missing or status:
        ended = f"exited with status {status}" if status >= 0 else f"was killed by signal {-status}"
        raise ChildProcessError(f"simulate's worker process {ended}"
                                + (f" before block {missing} of {count}" if missing else ""))
    return True


def _receive(pipe):
    """The next text a worker sent through ``pipe``, or None if it ended first."""
    header = pipe.read(8)
    size = int.from_bytes(header, "little") if len(header) == 8 else 0
    text = pipe.read(size)
    return text.decode() if size and len(text) == size else None


def cmd_calibrate(cfg: ToolkitConfig, dataset_path, model_path=None,
                  orders=(1, 2, 3, 4, 5), strict_paper=False) -> None:
    """Cross-validate polynomial orders, persist the winner, print the table.

    The persisted model is refit on the full dataset at the selected
    order. Nothing is persisted if any fold fails to fit.
    """
    try:  # the fits run on numpy: without it, an error line before the dataset is read
        import numpy  # noqa: F401
    except ImportError as exc:
        raise UsageError("calibrate needs numpy, which cannot be imported") from exc
    dataset = load_dataset(dataset_path)
    report = cross_validate(dataset, orders=orders, k=cfg.kfold, seed=cfg.seed,
                            repeats=cfg.repeats, strict_paper=strict_paper)
    model = fit_polynomial(
        dataset.signals, dataset.forces, report.selected_order,
        signal_units=cfg.signal_units,
    )
    if model_path is not None:
        save_model(model_path, model, report)
    print(report.table())


def cmd_estimate(cfg: ToolkitConfig, model_path, stream_path, output_path=None) -> None:
    """Replay a sample stream through a calibrated model, frame by frame."""
    model = load_model(model_path)
    est_cfg = make_estimator_config(cfg, model)
    with open_input(stream_path) as stream, _output(output_path) as out:
        estimate_lines(cfg, est_cfg, stream, out)


def cmd_report(cfg: ToolkitConfig, frames_path, truth_path=None, want_rmse=False) -> None:
    """Summarize a frame stream, optionally scoring it against a scenario."""
    if want_rmse and truth_path is None:
        raise UsageError("--rmse needs a ground-truth scenario (--truth)")
    truth = load_scenario(truth_path) if truth_path is not None else None
    sensing_range, _ = range_for_gain(cfg.bridge.amplifier_gain)
    with open_input(frames_path) as handle:
        summary = summarize_lines(handle, sensing_range, truth=truth)
    print(summary)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number_arg(read, kind: str):
    """Argparse type of a number flag: ``read`` of its text, or argparse's
    own ``invalid <kind> value`` message for text ``read`` refuses."""
    def parse(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}") from None
    return parse


_int_arg, _float_arg = _number_arg(read_int, "int"), _number_arg(read_float, "float")


def _orders_arg(text: str):
    try:
        orders = tuple(read_int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if any(o < 1 for o in orders):
        raise argparse.ArgumentTypeError("orders must be positive integers")
    if len(set(orders)) < len(orders):
        raise argparse.ArgumentTypeError("orders must not repeat")
    return orders


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tactsim", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="toolkit config file (key = value lines)")
    common.add_argument("--seed", type=_int_arg, help="override the configured seed")
    common.add_argument("--gain", type=_float_arg, help="override the amplifier gain")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a load scenario through the sensor chain")
    p.add_argument("scenario", help="scenario CSV (t,force_n,quadrants)")
    p.add_argument("-o", "--output", help="sample stream output (default stdout)")

    p = sub.add_parser("calibrate", parents=[common],
                       help="fit and select a force model from a dataset")
    p.add_argument("dataset", help="dataset CSV (v,force_n[,weight_gw])")
    p.add_argument("-o", "--output", help="model file to write")
    p.add_argument("--orders", type=_orders_arg, default=(1, 2, 3, 4, 5),
                   help="comma-separated polynomial orders (default 1,2,3,4,5)")
    p.add_argument("--repeats", type=_int_arg, help="cross-validation repeats")
    p.add_argument("--strict-paper-cv", action="store_true",
                   help="test only on fold 0 per repeat instead of rotating")

    p = sub.add_parser("estimate", parents=[common],
                       help="replay a sample stream through a model")
    p.add_argument("stream", help="sample stream file, or - for stdin")
    p.add_argument("-m", "--model", required=True, help="model file from calibrate")
    p.add_argument("-o", "--output", help="frame record output (default stdout)")
    p.add_argument("--window", type=_int_arg, help="override the filter window")

    p = sub.add_parser("report", parents=[common],
                       help="summarize a frame stream")
    p.add_argument("frames", help="frame record file from estimate, or - for stdin")
    p.add_argument("--truth", help="ground-truth scenario CSV")
    p.add_argument("--rmse", action="store_true",
                   help="require an RMSE section (needs --truth)")
    return parser


def _load_cfg(args) -> ToolkitConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.gain is not None:
        if not math.isfinite(args.gain):
            raise UsageError(f"--gain must be finite, got {args.gain}")
        if args.gain <= 0:
            raise UsageError("--gain must be positive")
        cfg = replace(cfg, bridge=replace(cfg.bridge, amplifier_gain=args.gain))
    for flag, name in (("seed", "seed"), ("window", "filter_window"), ("repeats", "repeats")):
        value = getattr(args, flag, None)  # --window and --repeats belong to one command
        if value is not None:
            try:
                cfg = replace(cfg, **{name: value})
            except ConfigError as exc:  # the config's rule for the field, said of the flag
                raise UsageError(str(exc).replace(name, f"--{flag}", 1)) from exc
    return cfg


def main(argv=None, fork=False) -> int:
    """Run the command of ``argv`` (the process's arguments if None); its
    exit code. ``simulate`` may fork a worker only if ``fork`` is true."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        inputs = [(name, path) for name in _INPUTS
                  if (path := getattr(args, name, None)) is not None]
        if [path for _, path in inputs].count("-") > 1:
            raise UsageError("only one input can be read from stdin (-)")
        _check_output(getattr(args, "output", None), inputs)
        cfg = _load_cfg(args)
        if args.command == "simulate":
            cmd_simulate(cfg, args.scenario, args.output, fork=fork)
        elif args.command == "calibrate":
            cmd_calibrate(cfg, args.dataset, args.output, orders=args.orders,
                          strict_paper=args.strict_paper_cv)
        elif args.command == "estimate":
            cmd_estimate(cfg, args.model, args.stream, args.output)
        elif args.command == "report":
            cmd_report(cfg, args.frames, truth_path=args.truth, want_rmse=args.rmse)
    except (ToolkitError, OSError) as exc:  # OSError: a file that cannot be opened
        print(f"tactsim: error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ToolkitError) else 2
    return 0


def run() -> int:
    """Entry point of the ``tactsim`` command and ``python -m tactsim``.

    Runs ``main`` with OpenBLAS on one thread unless the environment
    already sets ``OPENBLAS_NUM_THREADS``. No tactsim array is large
    enough to use a BLAS thread pool, and starting one is about 40% of
    numpy's import. A closed stdout ends the command by the default
    ``SIGPIPE`` action, as it ends other filters, not as a data error.
    The cyclic garbage collector is off while the command runs, and the
    heap is frozen when it ends, so that the interpreter's teardown
    collections skip every object the command and its imports made.
    Teardown is the larger cost: a full pass over some 14,000 objects,
    23,000 once numpy is loaded. A command leaves a constant amount of
    cyclic garbage, its argument parser, whatever the stream's length.
    Where ``os.fork`` exists and the process may run on two CPUs or
    more, ``run`` passes ``main`` the permission to fork, and
    ``simulate`` may fork one worker for a long stream
    (``cmd_simulate``); ``taskset -c 0`` keeps it to one process. No
    thread is started and no numpy imported before that fork. All four
    are set here, not on import, so that a program importing tactsim or
    calling ``main`` keeps its own BLAS settings, signal handlers and
    collector, and never forks.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    gc.disable()
    try:
        return main(fork=hasattr(os, "fork") and _usable_cpus() >= 2)
    finally:
        gc.freeze()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


if __name__ == "__main__":
    sys.exit(run())
