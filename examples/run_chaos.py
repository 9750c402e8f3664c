#!/usr/bin/env python
"""Chaos layer: node faults vs. distributed-protocol workloads.

Runs the E14 chaos matrix: leader-election, gossip, and replicated-log
workloads under seeded node-fault plans (fail-stop crashes, fail-recover
pauses) composed with link-fault plans (drops, jitter), each point under
a liveness watchdog with its protocol safety property -- election
safety, gossip convergence, log agreement -- checked on the perturbed
result.  Node faults are planned, deterministic, and part of the point
fingerprint: the same seed and plans replay bit for bit.

With ``--demo-failstop`` the script crash-stops one core on top of the
``run_faults.py --demo-deadlock`` shape (one dropped request, retries
off) and shows the watchdog's diagnostic dump naming the dead node.

Usage:
    python examples/run_chaos.py                      # quick chaos sweep
    python examples/run_chaos.py --seeds 0 1 2 3 4    # go deeper
    python examples/run_chaos.py --table              # full E14 table
    python examples/run_chaos.py --demo-failstop      # watchdog crash demo
    python examples/run_chaos.py --selftest           # CI gate

Exit status is 1 when any safety property fails (the script doubles as
a CI gate via --selftest).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.faults import (  # noqa: E402
    CRASH,
    PAUSE,
    DeadlockError,
    FaultPlan,
    NodeFault,
    NodeFaultPlan,
    Watchdog,
    node_fault_scenarios,
)
from repro.harness.experiments import (  # noqa: E402
    E14_PAUSE_CYCLES,
    E14_WINDOW,
    e14_chaos,
)
from repro.harness.parallel import result_fingerprint  # noqa: E402
from repro.isa.program import Assembler  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402
from repro.system import System  # noqa: E402
from repro.verification.protocols import ProtocolViolation  # noqa: E402
from repro.workloads.protocols import gossip, leader_election  # noqa: E402


def demo_failstop() -> None:
    """Crash one core into the dropped-request deadlock: the dump names it."""
    print("--- watchdog demo: fail-stop node + one dropped request ---")
    programs = []
    for tid in range(3):
        asm = Assembler(f"chaos-demo.t{tid}")
        if tid == 2:
            asm.exec_(600)
        asm.li(1, 0x1_0000).li(2, tid + 1)
        asm.store(2, base=1, offset=8 * tid)
        asm.halt()
        programs.append(asm.build())
    link = FaultPlan(seed=0, drop_first_n=1, retries_enabled=False)
    node = NodeFaultPlan(seed=0, faults=(NodeFault(2, CRASH, 100),))
    system = System(SystemConfig(n_cores=3), programs, fault_plan=link,
                    node_plan=node)
    try:
        system.run(watchdog=Watchdog(system, check_interval=500))
    except DeadlockError as exc:
        print(exc)
        print("--- end demo (the dump names the crash-stopped node) ---\n")
    else:
        raise AssertionError("demo unexpectedly completed")


# ------------------------------------------------------------- selftest

def _run_point(workload, node_plan, fault_plan=None):
    config = SystemConfig(n_cores=len(workload.programs))
    system = System(config, workload.programs, workload.initial_memory,
                    fault_plan=fault_plan, node_plan=node_plan)
    return system.run(watchdog=Watchdog(system))


def selftest(seed=0) -> int:
    """CI gate: chaos properties hold, replays are byte-identical, the
    watchdog names crashed nodes, and paused cores really recover."""
    failures = []

    def check(label, ok, detail=""):
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {label}" + (f" -- {detail}" if detail else ""))
        if not ok:
            failures.append(label)

    print("chaos selftest")

    # The full (single-seed) chaos matrix: every property must hold and
    # the build itself asserts the directed fail-stop + recovery demos.
    try:
        result = e14_chaos(seeds=(seed,))
        rows = len(result.rows)
        crashed = sum(row[4] for row in result.rows)
        resumed = sum(row[6] for row in result.rows)
        check("E14 grid holds all safety properties", rows > 0,
              f"{rows} rows, {crashed} crashes, {resumed} resumes")
        check("chaos actually landed", crashed > 0 and resumed > 0)
        check("fail-stop dump names the dead node",
              result.data["directed"]["failstop"]["caught"])
        check("paused core resumed and converged",
              result.data["directed"]["recovery"]["resumes"] >= 1)
    except Exception as exc:  # noqa: BLE001 - any failure fails the gate
        check("E14 grid holds all safety properties", False, str(exc))

    # Determinism: same seed + plans => byte-identical results.
    scenarios = node_fault_scenarios(seed=seed, n_cores=4,
                                     window=E14_WINDOW,
                                     pause_cycles=E14_PAUSE_CYCLES)
    workload = leader_election(4)
    link = FaultPlan(seed=seed, drop_prob=0.08)
    fps = [result_fingerprint(_run_point(workload, scenarios["crash"], link))
           for _ in range(2)]
    check("chaos replay is byte-identical", fps[0] == fps[1])

    # Fault-free invisibility: an inactive plan leaves no trace.
    clean = _run_point(gossip(4), None)
    inactive = _run_point(gossip(4), NodeFaultPlan(seed=seed))
    check("inactive plan is invisible",
          result_fingerprint(clean) == result_fingerprint(inactive)
          and not any(k.startswith("nodefaults.")
                      for k in clean.stats.snapshot()))

    # A pause delays the victim but every core still halts.
    paused = _run_point(gossip(4), NodeFaultPlan(seed=seed, faults=(
        NodeFault(1, PAUSE, 300, 400),)))
    check("pause-resume point halts with no crash record",
          not paused.crashed_core_ids()
          and paused.stats.snapshot().get("nodefaults.resumes") == 1)

    if failures:
        print(f"SELFTEST FAILED: {len(failures)} check(s)")
        return 1
    print("SELFTEST PASSED: chaos layer deterministic, safe, diagnosable")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[0, 1, 2],
                        help="chaos seeds to sweep (default: 0 1 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for --selftest (default 0)")
    parser.add_argument("--table", action="store_true",
                        help="render the full E14 experiment table")
    parser.add_argument("--demo-failstop", action="store_true",
                        help="demonstrate the watchdog naming a dead node")
    parser.add_argument("--selftest", action="store_true",
                        help="run the CI selftest and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest(seed=args.seed)

    if args.demo_failstop:
        demo_failstop()
        if not args.table:
            return 0

    try:
        result = e14_chaos(seeds=tuple(args.seeds))
    except (ProtocolViolation, RuntimeError) as exc:
        print("chaos run violated a safety property or failed:")
        print(exc)
        return 1
    print(result.render())
    recovery = result.data["directed"]["recovery"]
    print(f"\ndirected: fail-stop hang caught with the dead node named; "
          f"recovery point resumed {recovery['resumes']} pause(s) in "
          f"{recovery['cycles']} cycles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
