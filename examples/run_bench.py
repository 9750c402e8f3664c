#!/usr/bin/env python
"""Measure simulator throughput per grid point and write BENCH_<n>.json.

Usage:
    python examples/run_bench.py                      # full E1+E9 grids
    python examples/run_bench.py --quick              # reduced grids
    python examples/run_bench.py --check              # 3-point schema smoke
    python examples/run_bench.py --out BENCH_2.json   # explicit output path
    python examples/run_bench.py --baseline old.json  # embed speedup vs old
    python examples/run_bench.py --repeats 3          # best-of-N wall times
    python examples/run_bench.py --profile 25         # cProfile one point
    python examples/run_bench.py --superblock-stats   # fusion coverage table

Each grid point (one deterministic simulation) reports wall seconds,
dispatched events/sec, simulated cycles/sec, and a result fingerprint
covering the full stats table.  ``--baseline`` additionally verifies the
fingerprints match the older run point-for-point -- a speedup claim is
only recorded when the stats tables are byte-identical.

``--check`` runs three small points, validates the emitted document
against the schema, and writes nothing; the default test pass uses it as
a smoke test (see docs/PERF.md for the full workflow).

``--profile N`` skips the bench entirely: it runs ONE representative
grid point (the first point of the quick MEM grid) under cProfile and
prints the top N functions by total self time -- the first place to
look when chasing an events/sec regression.

``--superblock-stats`` also skips the timing bench: it runs every grid
point once (``--quick``/``--check`` select the grids as usual) and
prints the trace-compiled-execution coverage per workload -- the
fraction of dynamic instructions retired inside fused superblocks
(compiled loop spans, the only spans there are) and the mean
fused-block length.  Use it to see where the fusion detector does and
does not engage before reading a BENCH delta.
"""

import sys

from repro.harness.bench import (
    attach_baseline,
    bench_grids,
    check_grids,
    default_grids,
    load_bench,
    next_bench_path,
    render_bench,
    validate_bench,
    write_bench,
)


def _flag_value(argv, flag):
    if flag not in argv:
        return None, argv
    index = argv.index(flag)
    if index + 1 >= len(argv):
        raise SystemExit(f"{flag} needs an argument")
    return argv[index + 1], argv[:index] + argv[index + 2:]


def _profile_point(top_n):
    """cProfile one representative grid point; print top-N by tottime."""
    import cProfile
    import pstats

    from repro.harness.experiments import mem_plan
    from repro.system import System

    spec = mem_plan(n_cores=4, scale=0.3)[0]
    print(f"profiling {spec.label} ({spec.config.describe()})")

    def run():
        System(spec.config, spec.workload.programs,
               spec.workload.initial_memory).run()

    profiler = cProfile.Profile()
    profiler.runcall(run)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(top_n)
    return 0


def _superblock_stats(grids):
    """Run every grid point once; print per-workload fusion coverage."""
    from repro.system import System

    width = max(len(s.label) for specs in grids.values() for s in specs)
    for grid_id, specs in sorted(grids.items()):
        print(f"{grid_id}:")
        print(f"  {'point'.ljust(width)}  coverage  mean-len  "
              "fused-instr  total-instr")
        for spec in specs:
            result = System(spec.config, spec.workload.programs,
                            spec.workload.initial_memory).run()
            total = result.total_instructions()
            print(f"  {spec.label.ljust(width)}  "
                  f"{result.fusion_coverage():8.1%}  "
                  f"{result.mean_superblock_length():8.2f}  "
                  f"{result.fused_instructions():11d}  {total:11d}")
    return 0


def main(argv):
    check = "--check" in argv
    quick = "--quick" in argv
    quiet = "--quiet" in argv
    sb_stats = "--superblock-stats" in argv
    argv = [a for a in argv if a not in ("--check", "--quick", "--quiet",
                                         "--superblock-stats")]
    out_path, argv = _flag_value(argv, "--out")
    baseline_path, argv = _flag_value(argv, "--baseline")
    repeats_arg, argv = _flag_value(argv, "--repeats")
    profile_arg, argv = _flag_value(argv, "--profile")
    try:
        repeats = int(repeats_arg) if repeats_arg is not None else 1
    except ValueError:
        print(f"--repeats expects an integer, got {repeats_arg!r}")
        return 1
    if repeats < 1:
        print("--repeats must be >= 1")
        return 1
    if profile_arg is not None:
        try:
            top_n = int(profile_arg)
        except ValueError:
            print(f"--profile expects an integer, got {profile_arg!r}")
            return 1
        if top_n < 1:
            print("--profile must be >= 1")
            return 1
        if argv:
            print(f"unknown argument(s): {' '.join(argv)}")
            return 1
        return _profile_point(top_n)
    if argv:
        print(f"unknown argument(s): {' '.join(argv)}")
        return 1

    grids = check_grids() if check else default_grids(quick=quick)
    if sb_stats:
        return _superblock_stats(grids)
    progress = None if (quiet or check) else lambda text: print(f"  {text}")
    doc = bench_grids(grids, repeats=repeats, progress=progress)
    validate_bench(doc)

    if baseline_path is not None:
        attach_baseline(doc, load_bench(baseline_path))

    if check:
        # The smoke points are ALU-heavy spin workloads: only compiled
        # loop spans fuse, so if none of them retires instructions
        # inside fused superblocks, trace-compiled execution silently
        # disengaged -- fail the check, don't just report a slower
        # bench later.
        unfused = [p["label"] for g in doc["grids"].values()
                   for p in g["points"] if not p["fused_instructions"]]
        if unfused:
            print("bench --check: zero superblock fusion coverage on: "
                  + ", ".join(unfused))
            return 1
        print("bench --check: schema ok, fusion coverage nonzero "
              f"({sum(len(g['points']) for g in doc['grids'].values())} "
              "points measured)")
        print(render_bench(doc))
        return 0

    path = out_path or next_bench_path()
    write_bench(doc, path)
    print(render_bench(doc))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
