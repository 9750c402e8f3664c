"""Benchmark of the InvisiFence reproduction in ``src/repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-tables --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and writes its spans to ``perfbench/out/``.  ``--size tiny``
shrinks every workload for the benchmark's own tests.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value": ..., "unit": ...}``).
Lines before it name the run, print the digest of every operation's
result fingerprint, list failures, and record the host.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("paper-tables", "mesh-contention", "verify-campaign")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Measure one workload of the reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_package() -> bool:
    """Put this checkout's ``src`` first on the path and check that the
    package under test comes from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro
    return os.path.realpath(repro.__file__).startswith(
        os.path.join(os.path.realpath(SRC), ""))


def load_reference(workload: str, seed: int):
    """The recorded fingerprints that apply to this run, or ``None``.

    Fixed grids have one reference for every seed; a seeded workload
    has one for the seed it was recorded with."""
    with open(REFERENCE) as handle:
        entry = json.load(handle)[workload]
    if entry["seed"] is not None and entry["seed"] != seed:
        return None
    return entry["fingerprints"]


def declared_units(section: str):
    """Metric name -> unit, as ``BENCHMARK.json`` declares ``section``."""
    with open(SPEC) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def main(argv) -> int:
    args = parse_args(argv)
    if not import_package():
        print(f"perfbench: the package under test is not in {SRC}; run "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.size == "full" and not os.path.isfile(REFERENCE):
        print(f"perfbench: reference fingerprints missing: {REFERENCE}",
              file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    from benchkit import measure
    from benchkit.host import host_record
    from benchkit.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    reference = (load_reference(args.workload, args.seed)
                 if args.size == "full" else None)
    report = measure.run(workload, args.seed, args.seconds,
                         traced=bool(args.trace), reference=reference)
    if set(report.metrics) != set(units):
        print("perfbench: the run measured "
              f"{sorted(set(report.metrics) ^ set(units))} unlike "
              "BENCHMARK.json declares", file=sys.stderr)
        return 2
    host = host_record(ROOT, report.steal_s)

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace} passes {report.passes} "
          f"reference {'checked' if reference is not None else 'none'}")
    if not args.trace:
        print("pass host wall_s " + " ".join(f"{w:.3f}" for w in report.walls)
              + " reference wall_s "
              + " ".join(f"{w:.3f}" for w in report.reference_walls))
    print(f"digest {args.workload} {report.digest}")
    for message in report.messages:
        print(f"FAILED {message}")
    print("host " + json.dumps(host, sort_keys=True))
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.size}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"host": host, "metrics": report.metrics,
                       "passes": report.traces}, handle)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
