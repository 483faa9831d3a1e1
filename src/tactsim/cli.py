"""Command-line interface: simulate, calibrate, estimate, report.

Exit codes: 0 success, 1 usage, 2 data or parse failure, 3 numerical
(singular fit). Every command is deterministic given its inputs and
seed; re-runs are byte-identical.
"""

import argparse
import math
import os
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
from .errors import ToolkitError, UsageError
from .estimator import range_for_gain
from .pipeline import estimate_lines, simulate_blocks, summarize_lines
from .sensor import load_scenario
from .streams import format_sample_block, open_input

# The per-item paths each block path reproduces; bench/spans.py traces them here.
from .estimator import format_frame, parse_frame  # noqa: F401
from .pipeline import estimate_frames, simulate_samples, summarize_frames  # noqa: F401
from .streams import read_samples, write_samples  # noqa: F401


def _output(path):
    """The file at ``path`` to write, or stdout for ``-`` or no path."""
    return nullcontext(sys.stdout) if path is None or path == "-" else open(path, "w")


def cmd_simulate(cfg: ToolkitConfig, scenario_path, output_path=None, seed=None) -> None:
    """Run a scenario through the sensor chain and write the sample stream."""
    blocks = simulate_blocks(cfg, load_scenario(scenario_path), seed=seed)
    with _output(output_path) as out:
        for times, codes in blocks:
            out.write(format_sample_block(times, codes))


def cmd_calibrate(cfg: ToolkitConfig, dataset_path, model_path=None,
                  orders=(1, 2, 3, 4, 5), repeats=None, strict_paper=False) -> None:
    """Cross-validate polynomial orders, persist the winner, print the table.

    The persisted model is refit on the full dataset at the selected
    order. Nothing is persisted if any fold fails to fit.
    """
    dataset = load_dataset(dataset_path)
    report = cross_validate(dataset, orders=orders, k=cfg.kfold, seed=cfg.seed,
                            repeats=cfg.repeats if repeats is None else repeats,
                            strict_paper=strict_paper)
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
    stream_path = None if stream_path == "-" else stream_path
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


def _orders_arg(text: str):
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not orders or any(o < 1 for o in orders):
        raise argparse.ArgumentTypeError("orders must be positive integers")
    return orders


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tactsim", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="toolkit config file (key = value lines)")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--gain", type=float, help="override the amplifier gain")

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
    p.add_argument("--repeats", type=int, help="cross-validation repeats")
    p.add_argument("--strict-paper-cv", action="store_true",
                   help="test only on fold 0 per repeat instead of rotating")

    p = sub.add_parser("estimate", parents=[common],
                       help="replay a sample stream through a model")
    p.add_argument("stream", help="sample stream file, or - for stdin")
    p.add_argument("-m", "--model", required=True, help="model file from calibrate")
    p.add_argument("-o", "--output", help="frame record output (default stdout)")
    p.add_argument("--window", type=int, help="override the filter window")

    p = sub.add_parser("report", parents=[common],
                       help="summarize a frame stream")
    p.add_argument("frames", help="frame record file from estimate")
    p.add_argument("--truth", help="ground-truth scenario CSV")
    p.add_argument("--rmse", action="store_true",
                   help="require an RMSE section (needs --truth)")
    return parser


def _load_cfg(args) -> ToolkitConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.gain is not None:
        if not math.isfinite(args.gain):
            raise UsageError(f"--gain must be finite, got {args.gain}")
        if args.gain <= 0:
            raise UsageError("--gain must be positive")
        cfg = replace(cfg, bridge=replace(cfg.bridge, amplifier_gain=args.gain))
    if getattr(args, "window", None) is not None:
        if args.window < 1:
            raise UsageError("--window must be at least 1")
        cfg = replace(cfg, filter_window=args.window)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_cfg(args)
        if args.command == "simulate":
            cmd_simulate(cfg, args.scenario, args.output)
        elif args.command == "calibrate":
            cmd_calibrate(cfg, args.dataset, args.output, orders=args.orders,
                          repeats=args.repeats, strict_paper=args.strict_paper_cv)
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
    numpy's import. Set here, not on import, so that a program importing
    tactsim keeps its own BLAS settings.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    return main()


if __name__ == "__main__":
    sys.exit(run())
