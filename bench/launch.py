"""Run one command; record its wall time, exit status and peak RSS.

    python3 -S -E launch.py RECORD.json COMMAND [ARG ...]

The benchmark starts every timed command through this small process. A
child forked straight from the benchmark would report the benchmark's
own, larger resident set as its peak (Linux carries the pre-exec peak
across exec), and the wall time is taken here so that it leaves out
this launcher's start-up.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(record, "w") as handle:
        json.dump({"seconds": seconds, "exit": proc.returncode,
                   "maxrss_kb": usage.ru_maxrss}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
