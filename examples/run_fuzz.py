#!/usr/bin/env python
"""Fuzz the simulator's consistency machinery.

Generates seeded random litmus programs, runs each under a sweep of
consistency model x speculation mode x timing skew, and checks every
recorded execution against its own model's ordering axioms (SC / TSO /
RMO).  A faithful machine must report zero violations; any failure is
shrunk to a minimal litmus test and written out as a standalone
reproducer script.

Usage:
    python examples/run_fuzz.py                          # quick default sweep
    python examples/run_fuzz.py --programs 50 --seed 7   # go deeper
    python examples/run_fuzz.py --models sc tso          # subset of models
    python examples/run_fuzz.py --inject sc-load-no-drain   # prove detection
    python examples/run_fuzz.py --out-dir out/           # write reproducers

Exit status is 1 when violations were found on a faithful machine (or
when an injected bug was NOT caught), so the script doubles as a CI
gate.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import at_least  # noqa: E402
from repro.sim.config import ConsistencyModel  # noqa: E402
from repro.verification.fuzz import (  # noqa: E402
    INJECTIONS,
    fuzz_sweep,
    write_reproducer,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=at_least(1), default=20,
                        help="random programs per sweep (default 20)")
    parser.add_argument("--ops", type=at_least(1), default=8,
                        help="ops per thread (default 8)")
    parser.add_argument("--threads", type=at_least(1), default=2,
                        help="threads per program (default 2)")
    parser.add_argument("--seed", type=at_least(0), default=0)
    parser.add_argument("--models", nargs="*",
                        choices=[m.value for m in ConsistencyModel],
                        help="models to sweep (default: all)")
    parser.add_argument("--inject", choices=INJECTIONS,
                        help="plant a known bug; the sweep must catch it")
    parser.add_argument("--all-failures", action="store_true",
                        help="keep sweeping after the first failure")
    parser.add_argument("--out-dir",
                        help="write repro_<seed>.py reproducer scripts here")
    args = parser.parse_args(argv)

    models = ([ConsistencyModel(m) for m in args.models]
              if args.models else tuple(ConsistencyModel))
    report = fuzz_sweep(
        n_programs=args.programs,
        seed=args.seed,
        n_threads=args.threads,
        ops_per_thread=args.ops,
        models=models,
        inject=args.inject,
        stop_after=None if args.all_failures else 1,
    )
    print(f"fuzz sweep: {report.cases_run} cases, "
          f"{report.checks_passed} passed, "
          f"{len(report.failures)} violation(s)"
          + (f" [injected: {args.inject}]" if args.inject else ""))

    for failure in report.failures:
        print(f"\ncase {failure.case.describe()}")
        print(f"  shrunk to {failure.shrunk.instruction_count()} "
              f"instructions on {failure.shrunk.n_threads} thread(s)")
        for tid, ops in enumerate(failure.shrunk.threads):
            rendered = ", ".join(
                f"{op.kind}"
                + (f" [{op.addr:#x}]" if op.kind in ("load", "store", "swap")
                   else "")
                + (f"={op.value}" if op.kind in ("store", "swap") else "")
                for op in ops)
            print(f"    t{tid}: {rendered}")
        print("  " + failure.message.replace("\n", "\n  "))
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir,
                                f"repro_{failure.case.seed}.py")
            write_reproducer(failure.shrunk, path)
            print(f"  reproducer written to {path}")

    if args.inject:
        if report.failures:
            print("\ninjected bug caught: the checking pipeline works")
            return 0
        print("\ninjected bug NOT caught -- checker regression!")
        return 1
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
