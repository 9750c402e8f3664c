#!/usr/bin/env python
"""Regenerate the experiment tables (E1-E14) and ablations (A1-A6).

E1-E10 are the paper's tables and figures; E11-E14 are the consistency
fuzzing, fault-injection, fence-synthesis and chaos studies.

Usage:
    python examples/run_experiments.py                # everything, full scale
    python examples/run_experiments.py E2 A4          # a subset
    python examples/run_experiments.py --quick        # reduced scale (CI)
    python examples/run_experiments.py --csv out/     # also write CSVs
    python examples/run_experiments.py E2 --jobs 4    # parallel sweep
    python examples/run_experiments.py --jobs 1       # strictly serial (debug)
    python examples/run_experiments.py --times        # per-point wall times
    python examples/run_experiments.py --store DIR    # reuse/persist results

Experiments (E*) declare their run grids up front; one shared scheduler
keys each (config, workload) point by the machine it builds (an RMO
point builds its TSO twin's machine) and simulates each distinct
machine exactly once, across experiments -- fanned out over ``--jobs``
worker processes (default: all CPUs) -- and the tables are built from
the cached results.  Every simulation point is deterministic, so the
tables are bit-identical for any ``--jobs`` value.  With ``--store DIR``
every simulated point is also written to a persistent result store, and
points already there are read back instead of simulated: repeating a
run, or restarting one that was killed, simulates only what is missing.
Ablations (A*) run in-process after the sweep.  ``--quick`` shrinks the
experiments and ablations named in ``QUICK_OVERRIDES``; the others run
at their default size.

Each experiment prints an ASCII table; EXPERIMENTS.md records a full-
scale run and compares it against the paper's claims.
"""

import os
import sys
import time

from repro.harness import Experiment, SweepScheduler, all_ablations, all_experiments


QUICK_OVERRIDES = {
    "E1": dict(n_cores=4, scale=0.3),
    "E2": dict(n_cores=4, scale=0.3),
    "E3": dict(n_cores=4, scale=0.3),
    "E5": dict(n_cores=4),
    "E6": dict(n_cores=4, scale=0.3),
    "E7": dict(scale=0.3, core_counts=(2, 4)),
    "E8": dict(n_cores=4, scale=0.3),
    "E9": dict(core_counts=(2, 4), scale=0.3),
    "E11": dict(n_programs=2),
    "E12": dict(n_programs=2),
    "A1": dict(n_cores=4, scale=0.3),
    "A2": dict(n_cores=4, scale=0.3),
    "A4": dict(n_cores=4),
    "A6": dict(n_cores=4, scale=0.3),
}


def _flag_value(argv, flag):
    """Pop ``flag VALUE`` from argv; returns (value or None, remaining argv)."""
    if flag not in argv:
        return None, argv
    index = argv.index(flag)
    if index + 1 >= len(argv):
        raise SystemExit(f"{flag} needs an argument")
    value = argv[index + 1]
    return value, argv[:index] + argv[index + 2:]


def main(argv):
    quick = "--quick" in argv
    times = "--times" in argv
    argv = [a for a in argv if a not in ("--quick", "--times")]
    csv_dir, argv = _flag_value(argv, "--csv")
    jobs_arg, argv = _flag_value(argv, "--jobs")
    store_dir, argv = _flag_value(argv, "--store")
    try:
        jobs = int(jobs_arg) if jobs_arg is not None else (os.cpu_count() or 1)
    except ValueError:
        print(f"--jobs expects an integer, got {jobs_arg!r}")
        return 1
    if jobs < 1:
        print("--jobs must be >= 1")
        return 1

    unknown_flags = [a for a in argv if a.startswith("-")]
    if unknown_flags:
        print(f"unknown flag(s): {' '.join(unknown_flags)}")
        return 1
    # Each named experiment runs once, in the order first named.
    requested = list(dict.fromkeys(a.upper() for a in argv))
    registry = dict(all_experiments())
    registry.update(all_ablations())
    targets = requested or list(registry)
    for exp_id in targets:
        if exp_id not in registry:
            print(f"unknown experiment {exp_id}; choose from {list(registry)}")
            return 1

    if csv_dir is not None:
        try:
            os.makedirs(csv_dir, exist_ok=True)
        except OSError as exc:
            print(f"--csv {csv_dir}: cannot write CSVs there: "
                  f"{exc.strerror or exc}")
            return 1

    # Phase 1: declare every experiment's grid; the shared scheduler
    # keys points by the machine they build and simulates each distinct
    # machine exactly once.
    try:
        scheduler = SweepScheduler(jobs=jobs, store_dir=store_dir)
    except OSError as exc:
        print(f"--store {store_dir}: cannot open result store: "
              f"{exc.strerror or exc}")
        return 1
    kwargs_for = {}
    for exp_id in targets:
        entry = registry[exp_id]
        kwargs = QUICK_OVERRIDES.get(exp_id, {}) if quick else {}
        kwargs_for[exp_id] = kwargs
        if isinstance(entry, Experiment):
            scheduler.add(exp_id, entry.plan(**kwargs))

    if scheduler.unique_points:
        report = scheduler.run()
        print(report.render())
        if times:
            for label, seconds in sorted(report.point_seconds.items(),
                                         key=lambda kv: -kv[1]):
                print(f"  {seconds:8.2f}s  {label}")
        print()

    # Phase 2: build each table from the cached results (ablations
    # still run in-process here).
    for exp_id in targets:
        entry = registry[exp_id]
        kwargs = kwargs_for[exp_id]
        started = time.time()
        if isinstance(entry, Experiment):
            result = entry.build(scheduler.results_for(exp_id), **kwargs)
        else:
            result = entry(**kwargs)
        print(result.render())
        print(f"  ({time.time() - started:.1f}s)\n")
        if csv_dir:
            print(f"  wrote {result.write_csv(csv_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
