#!/usr/bin/env python
"""Synthesize minimal fence sets against the ordering checker.

Takes the canonical fence-free litmus shapes (store buffering, message
passing, load buffering), runs them on the relaxed (RMO) machine, and
searches the minimal set of fence placements that restores a stronger
target model (SC or TSO) -- delta-debug style, against a two-layer
oracle: exhaustive axiomatic witness enumeration plus confirming
machine sweeps across speculation modes and timing skews.  Then
prices the synthesized fences in cycles under each speculation mode
(the E13 table).

Usage:
    python examples/run_synth.py                     # all shapes, both targets
    python examples/run_synth.py --workload sb --target sc
    python examples/run_synth.py --seed 7 --max-queries 400
    python examples/run_synth.py --table             # full E13 table
    python examples/run_synth.py --selftest          # CI gate, exits nonzero on fail

Exit status is 1 when any synthesis fails to confirm a sufficient set
(or, under --selftest, when a known-minimal fence set is not recovered).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import at_least  # noqa: E402
from repro.isa.instructions import FenceKind  # noqa: E402
from repro.sim.config import ConsistencyModel, SpeculationMode  # noqa: E402
from repro.verification.synth import (  # noqa: E402
    fence_cost,
    synthesize_fences,
)
from repro.workloads.litmus import canonical_litmus_ir  # noqa: E402

TARGETS = {"sc": ConsistencyModel.SC, "tso": ConsistencyModel.TSO}


def run_synthesis(workloads, targets, seed, max_queries,
                  verbose=True):
    """Synthesize each (workload, target) pair; returns the results."""
    shapes = canonical_litmus_ir()
    results = {}
    for name in workloads:
        for target_name in targets:
            target = TARGETS[target_name]
            res = synthesize_fences(shapes[name], target, seed=seed,
                                    max_queries=max_queries)
            results[(name, target_name)] = res
            if verbose:
                status = "ok" if res.sufficient else "NOT CONFIRMED"
                print(f"{name:3s} -> {target_name:3s}  {res.describe()}  "
                      f"[{status}]")
                if res.placements:
                    cyc_none = fence_cost(shapes[name], res.placements,
                                          spec=SpeculationMode.NONE)
                    cyc_od = fence_cost(shapes[name], res.placements,
                                        spec=SpeculationMode.ON_DEMAND)
                    print(f"          fenced cycles: {cyc_none} (spec off) "
                          f"vs {cyc_od} (on-demand)")
    return results


# ------------------------------------------------------------- selftest

#: The known-minimal fence sets the synthesizer must recover (the
#: acceptance criteria of the synthesis subsystem): SB needs a
#: store-load fence per thread for SC and nothing for TSO; MP needs
#: store-store (writer) + load-load (reader); LB needs load-store in
#: each thread.
EXPECTED = {
    ("sb", "sc"): [(0, FenceKind.STORE_LOAD), (1, FenceKind.STORE_LOAD)],
    ("sb", "tso"): [],
    ("mp", "sc"): [(0, FenceKind.STORE_STORE), (1, FenceKind.LOAD_LOAD)],
    ("mp", "tso"): [(0, FenceKind.STORE_STORE), (1, FenceKind.LOAD_LOAD)],
    ("lb", "sc"): [(0, FenceKind.LOAD_STORE), (1, FenceKind.LOAD_STORE)],
    ("lb", "tso"): [(0, FenceKind.LOAD_STORE), (1, FenceKind.LOAD_STORE)],
}


def selftest(seed=0) -> int:
    """CI gate: the synthesizer recovers every known-minimal fence set,
    deterministically, and the synthesized StoreLoad fences actually
    cost drain stalls that speculation then wins back."""
    failures = []

    def check(label, ok, detail=""):
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {label}" + (f" -- {detail}" if detail else ""))
        if not ok:
            failures.append(label)

    print("fence-synthesis selftest")
    results = run_synthesis(["sb", "mp", "lb"], ["sc", "tso"],
                            seed=seed, max_queries=200, verbose=False)
    for key, expected in EXPECTED.items():
        res = results[key]
        got = sorted((p.thread, p.kind) for p in res.placements)
        check(f"{key[0]}->{key[1]} recovers {expected or 'no fences'}",
              got == sorted(expected) and res.sufficient,
              ", ".join(p.describe() for p in res.placements) or "none")
        check(f"{key[0]}->{key[1]} static oracle not capped",
              not res.capped)

    # Determinism: the same seed synthesizes the same artifact.
    shapes = canonical_litmus_ir()
    again = synthesize_fences(shapes["sb"], ConsistencyModel.SC, seed=seed)
    check("same seed, same fence set",
          again.placements == results[("sb", "sc")].placements
          and again.oracle_queries == results[("sb", "sc")].oracle_queries)

    # The economics: SB's synthesized StoreLoad fences stall with
    # speculation off; on-demand speculation recovers most of it.
    sb_fences = results[("sb", "sc")].placements
    unfenced = fence_cost(shapes["sb"], ())
    fenced_none = fence_cost(shapes["sb"], sb_fences,
                             spec=SpeculationMode.NONE)
    fenced_od = fence_cost(shapes["sb"], sb_fences,
                           spec=SpeculationMode.ON_DEMAND)
    check("StoreLoad fences cost cycles with speculation off",
          fenced_none > unfenced,
          f"{unfenced} unfenced vs {fenced_none} fenced")
    check("on-demand speculation recovers fence stalls",
          fenced_od < fenced_none,
          f"{fenced_none} spec=none vs {fenced_od} on-demand")

    if failures:
        print(f"SELFTEST FAILED: {len(failures)} check(s)")
        return 1
    print("SELFTEST PASSED: all known-minimal fence sets recovered")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*",
                        choices=sorted(canonical_litmus_ir()),
                        help="litmus shapes to synthesize for (default: all)")
    parser.add_argument("--target", nargs="*", choices=sorted(TARGETS),
                        help="target models (default: sc and tso)")
    parser.add_argument("--seed", type=at_least(0), default=0)
    parser.add_argument("--max-queries", type=at_least(0), default=200,
                        help="oracle-query budget per synthesis (default 200)")
    parser.add_argument("--table", action="store_true",
                        help="render the full E13 experiment table")
    parser.add_argument("--selftest", action="store_true",
                        help="run the CI selftest and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest(seed=args.seed)

    if args.table:
        from repro.harness import e13_fence_synthesis
        result = e13_fence_synthesis(seed=args.seed,
                                     max_queries=args.max_queries)
        print(result.render())
        return 0

    results = run_synthesis(args.workload or sorted(canonical_litmus_ir()),
                            args.target or ["sc", "tso"],
                            seed=args.seed, max_queries=args.max_queries)
    return 0 if all(r.sufficient for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
