"""Peak RSS of a tactsim command on a small input, then on a large one.

    python tests/peak_rss.py BOUND_MB SMALL_ARGS... -- LARGE_ARGS...

Each peak is that child's own, from its ``os.wait4`` (``RUSAGE_CHILDREN``
keeps one maximum over all children). Fails if a run fails, or if the
large peak exceeds the small one by more than BOUND_MB.
"""

import os
import subprocess
import sys


def peak_mb(argv) -> float:
    child = subprocess.Popen(["tactsim", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"tactsim {argv[0]} exited {child.returncode}")
    return usage.ru_maxrss / 1024  # kB on Linux


def main(bound, *args) -> None:
    split = args.index("--")
    small, large = peak_mb(args[:split]), peak_mb(args[split + 1:])
    command = args[0]
    print(f"{command}: peak RSS {small:.2f} MB small, {large:.2f} MB large")
    if large - small > float(bound):
        sys.exit(f"{command} peak RSS grew by {large - small:.2f} MB, more than {bound} MB")


if __name__ == "__main__":
    main(*sys.argv[1:])
