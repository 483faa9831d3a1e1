#!/usr/bin/env python3
"""Write bench/golden.json: digests and simulated statistics per workload.

    python3 bench/make_golden.py

Runs every workload at the canonical and the held-out seed through the
CLI twice, requires both runs to pass every check and agree byte for
byte, and records the input and artifact digests and the simulated
statistics. Regenerate only for a change that is meant to alter output
bytes; such a change alters behaviour, and says so.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tactsim.cli

    golden = {}
    for workload in workloads.WORKLOADS:
        golden[workload] = {}
        for seed in (workloads.CANONICAL_SEED, workloads.HELD_OUT_SEED):
            entry, ledger = {}, run.Ledger()
            for attempt in range(2):
                work = run.WORK / "golden" / workload / str(seed) / str(attempt)
                shutil.rmtree(work, ignore_errors=True)
                sets = run.prepare(workload, seed, work, tactsim)
                for kind, (plan, directory, inputs) in sets.items():
                    _, keys = run.run_pass(plan, directory, ledger, [])
                    expected = entry[kind]["artifacts"] if attempt else None
                    digests, stats = run.check(plan, directory, keys, ledger, expected)
                    entry[kind] = {"inputs": inputs, "artifacts": digests, "stats": stats}
            if ledger.failed:
                print(f"{workload} seed {seed}: {list(ledger.failed.values())}",
                      file=sys.stderr)
                return 1
            golden[workload][str(seed)] = json.loads(json.dumps(entry))
            print(f"{workload} seed {seed}: {ledger.attempted} commands, all checks pass")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
