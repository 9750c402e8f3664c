"""Record the reference result fingerprints the benchmark checks.

Usage (from the root of a checkout)::

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one full-size pass of each named workload (default: all) and
rewrites its entry in ``perfbench/reference.json``: every operation's
result fingerprint, for every seed on the fixed grids and for seed 0
on the seeded workload.  Record only from a commit whose simulated
results are known good: a speed-only change must reproduce these
fingerprints exactly, so re-recording is a claim that results changed
on purpose.
"""

import json
import os
import sys

from run import REFERENCE, WORKLOAD_NAMES, import_package

#: The seed whose inputs a seeded workload's reference covers.
REFERENCE_SEED = 0


def main(argv) -> int:
    names = argv or list(WORKLOAD_NAMES)
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown or not import_package():
        print(f"usage: record_reference.py [{' | '.join(WORKLOAD_NAMES)}] ...",
              file=sys.stderr)
        return 2
    from benchkit.clock import Clock
    from benchkit.workloads import WORKLOADS

    entries = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE) as handle:
            entries = json.load(handle)
    for name in names:
        workload = WORKLOADS[name]()
        result = workload.run_pass(workload.setup(REFERENCE_SEED), Clock())
        if result.errors:
            for key, why in sorted(result.errors.items()):
                print(f"FAILED {name} {key}: {why}", file=sys.stderr)
            return 1
        entries[name] = {
            "seed": REFERENCE_SEED if workload.seeded else None,
            "fingerprints": dict(sorted(result.fingerprints.items())),
        }
        print(f"{name}: {len(result.fingerprints)} fingerprints")
    with open(REFERENCE, "w") as handle:
        json.dump(dict(sorted(entries.items())), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
