#!/usr/bin/env python
"""Exercise the fault-injection subsystem and liveness watchdog.

Sweeps seeded random litmus programs over the named fault scenarios
(delay jitter, message duplication, transient link stalls,
drop-with-NACK-and-retry, and a combined storm) crossed with every
consistency model and speculation mode.  Every run executes under a
liveness watchdog and must pass its own model's ordering axioms: an
unreliable interconnect may change *timing*, never *order*.

With ``--demo-deadlock`` the script also drops one directory-bound
request with retries disabled and shows the watchdog converting the
resulting hang into a :class:`DeadlockError` whose diagnostic dump
names the stuck address and cores.  The node-fault variant of this
demo -- the same hang with a crash-stopped third core, whose death the
dump names -- lives in ``examples/run_chaos.py --demo-failstop``.

Usage:
    python examples/run_faults.py                     # quick scenario sweep
    python examples/run_faults.py --programs 8        # go deeper
    python examples/run_faults.py --scenarios storm   # subset
    python examples/run_faults.py --demo-deadlock     # watchdog demo

Exit status is 1 when any ordering check fails (the script doubles as a
CI gate).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import at_least  # noqa: E402
from repro.faults import (  # noqa: E402
    DeadlockError,
    FaultPlan,
    Watchdog,
    fault_scenarios,
)
from repro.harness.experiments import e12_fault_injection  # noqa: E402
from repro.isa.program import Assembler  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402
from repro.system import System  # noqa: E402
from repro.verification.checker import ConsistencyViolation  # noqa: E402


def demo_deadlock() -> None:
    """Drop one coherence request with retries off: watchdog fires."""
    print("--- watchdog demo: one dropped request, retries disabled ---")
    plan = FaultPlan(seed=0, drop_first_n=1, retries_enabled=False)
    programs = []
    for tid in range(2):
        asm = Assembler(f"demo.t{tid}")
        asm.li(1, 0x1_0000).li(2, tid + 1)
        asm.store(2, base=1, offset=8 * tid)
        asm.halt()
        programs.append(asm.build())
    system = System(SystemConfig(n_cores=2), programs, fault_plan=plan)
    watchdog = Watchdog(system, check_interval=500)
    try:
        system.run(watchdog=watchdog)
    except DeadlockError as exc:
        print(exc)
        print("--- end demo (this hang became a diagnosable exception; "
              "see run_chaos.py --demo-failstop for the node-fault "
              "variant) ---\n")
    else:
        raise AssertionError("demo unexpectedly completed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=at_least(1), default=4,
                        help="random programs per scenario (default 4)")
    parser.add_argument("--seed", type=at_least(0), default=0)
    parser.add_argument("--scenarios", nargs="*",
                        choices=sorted(fault_scenarios()),
                        help="scenario subset (default: all)")
    parser.add_argument("--demo-deadlock", action="store_true",
                        help="also demonstrate the watchdog's deadlock dump")
    args = parser.parse_args(argv)

    if args.demo_deadlock:
        demo_deadlock()

    try:
        result = e12_fault_injection(n_programs=args.programs,
                                     seed=args.seed)
    except ConsistencyViolation as exc:
        print("ordering violation under fault injection:")
        print(exc)
        return 1
    rows = result.rows
    if args.scenarios:
        wanted = set(args.scenarios)
        rows = [row for row in rows if row[0] in wanted]
        result.rows = rows
    print(result.render())

    total_runs = sum(row[2] for row in rows)
    total_passed = sum(row[3] for row in rows)
    print(f"\n{total_passed}/{total_runs} runs passed their ordering checks")
    return 0 if total_passed == total_runs else 1


if __name__ == "__main__":
    sys.exit(main())
