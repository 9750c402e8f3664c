#!/usr/bin/env python
"""Compare two commits through the repository benchmark; write BENCH_<n>.json.

Usage:
    python examples/run_bench.py PARENT CHANGE        # measure, write BENCH_<n>.json
    python examples/run_bench.py --profile 25         # cProfile one point
    python examples/run_bench.py --superblock-stats   # fusion coverage table

``PARENT CHANGE`` checks both revisions out with ``git worktree add``
into a temporary directory and runs ``perfbench/run.py`` in each, on
every workload ``BENCHMARK.json`` declares: 10 alternating pairs of
untraced runs (pair *k* runs the parent first when *k* is even), then 3
traced runs per side.  It also times each side's tier-1 tests and
``run_experiments.py E1 ... E10`` at ``--jobs 1`` and ``--jobs 2``.  The
result is the next ``BENCH_<n>.json`` beside this checkout's
``BENCHMARK.json``, in schema ``repro-bench/2`` (docs/PERF.md, "Reading
a BENCH document").  The pair count, the traced-run count, the seed and
the run length are constants, not options, so every document is
measured the same way.  A metric is marked a ``gain`` only when the
change wins at least 9 of the 10 pairs, its median is better than the
parent's by more than the parent's quartile distance, no more
operations failed than on the parent, and every run on both sides
printed the same digest.  It is marked ``regressed`` when its median is
worse than the parent's by more than its ``BENCHMARK.json`` bound.

Nothing is written if a perfbench run exits nonzero, or if the runs
disagree on the host (CPU count, CPU model or Python version).  Both
worktrees are removed however the driver exits.

``--profile N`` runs one representative grid point (the first point of
the quick MEM grid) under cProfile and prints the top N functions by
self time.

``--superblock-stats`` runs every point of the quick E1, E9 and MEM
grids once and prints per-point fusion coverage: the fraction of
dynamic instructions retired inside fused superblocks (compiled loop
spans, the only spans there are) and the mean fused-block length.
"""

import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCHEMA = "repro-bench/2"
#: Alternating parent/change pairs of untraced runs per workload: the
#: fewest that can show a change winning 9 of 10.
PAIRS = 10
#: Traced runs per side and workload; one is too noisy to compare layers.
TRACED_RUNS = 3
SEED = 0
#: A gain needs the change to win at least this many of the pairs.
GAIN_WINS = 9
EXPERIMENTS = tuple(f"E{n}" for n in range(1, 11))
HOST_KEYS = ("nproc", "cpu_model", "python")
SIDES = ("parent", "change")


class BenchError(RuntimeError):
    """A comparison could not be measured, or a document is invalid."""


# ---------------------------------------------------------------- verdicts

def verdict(parent, change, better, bound, failed_parent, failed_change,
            fingerprints_match):
    """Medians, the parent's quartiles, wins and the two verdicts of one
    metric, from its paired runs (``parent[k]`` against ``change[k]``)."""
    lower = better == "lower"
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    margin = (parent_median - change_median if lower
              else change_median - parent_median)
    worse_limit = parent_median * (1 + bound if lower else 1 - bound)
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": [q1, q3],
        "wins": wins,
        "gain": (fingerprints_match and wins >= GAIN_WINS
                 and margin > q3 - q1 and failed_change <= failed_parent),
        "regressed": (change_median > worse_limit if lower
                      else change_median < worse_limit),
    }


def layer_entry(parent, change):
    return {"parent": parent, "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change)}


# ------------------------------------------------------------- measuring

def pair_order(k):
    """Which side runs first in pair (or traced round) ``k``."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def measure(run, spec, progress=print):
    """Run every declared workload and build the document's
    ``host`` and ``workloads`` sections.

    ``run(side, workload, traced)`` makes one perfbench run and returns
    its parsed output (:func:`parse_perfbench`)."""
    host = None
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        traces = {side: [] for side in SIDES}
        for k in range(PAIRS + TRACED_RUNS):
            traced = k >= PAIRS
            for side in pair_order(k):
                result = run(side, workload, traced)
                host = host or result["host"]
                if result["host"] != host:
                    raise BenchError(
                        f"{workload}: the runs disagree on the host ({host} "
                        f"against {result['host']}); nothing written")
                (traces if traced else runs)[side].append(result)
                wall = result["metrics"].get("wall_s")
                progress(f"{workload} {'traced' if traced else 'pair'} "
                         f"{k + 1 - PAIRS if traced else k + 1}: {side}"
                         + (f" wall_s {wall:.3f}" if wall is not None else "")
                         + f" digest {result['digest'][:8]}")
        workloads[workload] = summarise(spec, runs, traces)
    return host, workloads


def summarise(spec, runs, traces):
    """One workload's section, from its parsed runs per side."""
    sides = {}
    for side in SIDES:
        done = runs[side] + traces[side]
        sides[side] = {"digests": [r["digest"] for r in done],
                       "failed": [r["failed"] for r in done],
                       "steal_s": [r["steal_s"] for r in done]}
    match = len(set(sides["parent"]["digests"]
                    + sides["change"]["digests"])) == 1
    failed = {side: sum(sides[side]["failed"]) for side in SIDES}
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        series = {side: [r["metrics"][name] for r in runs[side]]
                  for side in SIDES}
        end_to_end[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], **series,
            **verdict(series["parent"], series["change"], metric["better"],
                      metric["bound"], failed["parent"], failed["change"],
                      match)}
    per_layer = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        per_layer[name] = {"unit": metric["unit"], **layer_entry(
            *([r["metrics"][name] for r in traces[side]] for side in SIDES))}
    return {**sides, "fingerprints_match": match,
            "end_to_end": end_to_end, "per_layer": per_layer}


def parse_perfbench(stdout):
    """perfbench's output: its ``digest`` and ``host`` lines and the
    closing JSON object."""
    digest = host = None
    for line in stdout.splitlines():
        if line.startswith("digest "):
            digest = line.split()[-1]
        elif line.startswith("host "):
            host = json.loads(line[len("host "):])
    final = json.loads(stdout.strip().splitlines()[-1])
    steal = host.pop("steal_s")
    host.pop("git_commit")
    return {"digest": digest, "host": host,
            "steal_s": steal, "failed": final["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in final["metrics"].items()}}


# ----------------------------------------------------- the document

def validate_bench(doc):
    """Raise :class:`BenchError` unless ``doc`` is a well-formed
    ``repro-bench/2`` document whose verdicts recompute from its runs."""
    def require(condition, message):
        if not condition:
            raise BenchError(message)

    require(doc.get("schema") == SCHEMA,
            f"unknown bench schema {doc.get('schema')!r} (want {SCHEMA!r})")
    for key in ("parent", "change", "host", "pairs", "traced_runs", "seed",
                "seconds", "workloads", "sides", "tables_match"):
        require(key in doc, f"bench document missing key {key!r}")
    require(sorted(doc["host"]) == sorted(HOST_KEYS),
            f"host block must hold exactly {HOST_KEYS}")
    require(doc["workloads"], "bench document has no workloads")
    for name, workload in doc["workloads"].items():
        digests = workload["parent"]["digests"] + workload["change"]["digests"]
        match = len(set(digests)) == 1
        require(workload["fingerprints_match"] == match,
                f"{name}: fingerprints_match does not recompute")
        failed = {side: sum(workload[side]["failed"]) for side in SIDES}
        for metric, entry in workload["end_to_end"].items():
            require(not entry["gain"] or match,
                    f"{name} {metric}: a gain over different digests")
            require(len(entry["parent"]) == len(entry["change"])
                    == doc["pairs"], f"{name} {metric}: not {doc['pairs']} "
                    "pairs of runs")
            expected = verdict(entry["parent"], entry["change"],
                               entry["better"], entry["bound"],
                               failed["parent"], failed["change"], match)
            for key, value in expected.items():
                require(entry[key] == value, f"{name} {metric}: {key} "
                        "does not recompute from its runs")
        for metric, entry in workload["per_layer"].items():
            require(len(entry["parent"]) == len(entry["change"])
                    == doc["traced_runs"],
                    f"{name} {metric}: not {doc['traced_runs']} traced runs")
            require(entry == {"unit": entry["unit"], **layer_entry(
                entry["parent"], entry["change"])},
                f"{name} {metric}: per-layer medians do not recompute")
    for side in SIDES:
        require(side in doc["sides"], f"sides missing {side!r}")


def next_bench_path(directory=ROOT):
    """The next free ``BENCH_<n>.json`` path in ``directory``."""
    taken = [int(match.group(1)) for match in
             (re.fullmatch(r"BENCH_(\d+)\.json", name)
              for name in os.listdir(directory)) if match]
    return os.path.join(directory, f"BENCH_{max(taken, default=0) + 1}.json")


# ------------------------------------------------------ git and processes

def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"git {' '.join(args)}: "
                         + " ".join(proc.stderr.split()))
    return proc.stdout.strip()


def resolve(revision):
    """The full commit of ``revision``; refused without perfbench."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    try:
        git("cat-file", "-e", f"{commit}:perfbench/run.py")
    except BenchError:
        raise BenchError(f"{revision} has no perfbench/run.py") from None
    return commit


@contextlib.contextmanager
def worktrees(commits):
    """Check each side's commit out into a temporary worktree."""
    base = tempfile.mkdtemp(prefix="run-bench-")
    trees = {}
    try:
        for side in SIDES:
            path = os.path.join(base, side)
            git("worktree", "add", "--detach", path, commits[side])
            trees[side] = path
        yield trees
    finally:
        for path in trees.values():
            with contextlib.suppress(BenchError):
                git("worktree", "remove", "--force", path)
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(BenchError):
            git("worktree", "prune")


def perfbench(tree, workload, traced, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench --workload {workload} exited "
                         f"{proc.returncode} in {tree}")
    return parse_perfbench(proc.stdout)


def strip_timing(text):
    """A run_experiments.py output without its sweep and timing lines."""
    return "\n".join(line for line in text.splitlines()
                     if not line.strip().startswith("sweep:")
                     and not re.fullmatch(r"\(\d+(\.\d+)?s\)", line.strip()))


def user_waits(tree):
    """Tier-1 and E1-E10 wall times of one tree, and its tables."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))

    def timed(argv):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                              capture_output=True, text=True)
        return proc, round(time.perf_counter() - started, 3)

    proc, wall = timed(["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"])
    lines = proc.stdout.strip().splitlines()
    side = {"tier1": {"wall_s": wall, "exit_code": proc.returncode,
                      "summary": lines[-1] if lines else ""},
            "experiments_wall_s": {}}
    tables = {}
    for jobs in (1, 2):
        proc, wall = timed(["examples/run_experiments.py", *EXPERIMENTS,
                            "--jobs", str(jobs)])
        if proc.returncode != 0:
            raise BenchError(f"run_experiments.py --jobs {jobs} exited "
                             f"{proc.returncode} in {tree}")
        side["experiments_wall_s"][f"jobs_{jobs}"] = wall
        tables[jobs] = strip_timing(proc.stdout)
    return side, tables


def compare(parent, change, directory=ROOT, progress=print):
    """Measure ``parent`` against ``change``; write and return the path
    of the next BENCH document in ``directory``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    commits = {"parent": resolve(parent), "change": resolve(change)}
    with worktrees(commits) as trees:
        host, workloads = measure(
            lambda side, workload, traced: perfbench(
                trees[side], workload, traced, spec["run_seconds"]),
            spec, progress)
        sides, tables = {}, {}
        for side in SIDES:
            progress(f"timing tier-1 and {EXPERIMENTS[0]}-{EXPERIMENTS[-1]} "
                     f"on the {side}")
            sides[side], tables[side] = user_waits(trees[side])
    doc = {"schema": SCHEMA, **commits, "host": host, "pairs": PAIRS,
           "traced_runs": TRACED_RUNS, "seed": SEED,
           "seconds": spec["run_seconds"], "workloads": workloads,
           "sides": sides, "tables_match": tables["parent"] == tables["change"]}
    validate_bench(doc)
    path = next_bench_path(directory)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render(doc):
    """One line per workload and end-to-end metric."""
    lines = []
    for name, workload in doc["workloads"].items():
        lines.append(f"{name}: fingerprints_match "
                     f"{workload['fingerprints_match']}")
        for metric, entry in workload["end_to_end"].items():
            q1, q3 = entry["parent_quartiles"]
            marks = [mark for mark in ("gain", "regressed") if entry[mark]]
            lines.append(
                f"  {metric}: {entry['parent_median']:.3f} "
                f"[{q1:.3f}, {q3:.3f}] -> {entry['change_median']:.3f}, "
                f"{entry['wins']} of {doc['pairs']}"
                + (f"  {' '.join(marks).upper()}" if marks else ""))
    lines.append(f"tables_match {doc['tables_match']}")
    return "\n".join(lines)


# --------------------------------------------------------- other modes

def _quick_grids():
    from repro.harness.experiments import e1_plan, e9_plan, mem_plan

    return {"E1": e1_plan(n_cores=4, scale=0.3),
            "E9": e9_plan(core_counts=(2, 4), scale=0.3),
            "MEM": mem_plan(n_cores=4, scale=0.3)}


def _profile_point(top_n):
    """cProfile one representative grid point; print top-N by tottime."""
    import cProfile
    import pstats

    from repro.system import System

    spec = _quick_grids()["MEM"][0]
    print(f"profiling {spec.label} ({spec.config.describe()})")

    def run():
        System(spec.config, spec.workload.programs,
               spec.workload.initial_memory).run()

    profiler = cProfile.Profile()
    profiler.runcall(run)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(top_n)
    return 0


def _superblock_stats():
    """Run every quick-grid point once; print per-point fusion coverage."""
    from repro.system import System

    grids = _quick_grids()
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
    if argv == ["--superblock-stats"]:
        return _superblock_stats()
    if argv[:1] == ["--profile"]:
        if len(argv) != 2:
            print("--profile needs one integer argument")
            return 1
        try:
            top_n = int(argv[1])
        except ValueError:
            print(f"--profile expects an integer, got {argv[1]!r}")
            return 1
        if top_n < 1:
            print("--profile must be >= 1")
            return 1
        return _profile_point(top_n)
    unknown = [arg for arg in argv if arg.startswith("-")]
    if unknown:
        print(f"unknown argument(s): {' '.join(unknown)}")
        return 1
    if len(argv) != 2:
        print("usage: run_bench.py PARENT CHANGE | --profile N "
              "| --superblock-stats")
        return 1
    # A terminated driver still removes its worktrees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        path = compare(*argv)
    except BenchError as exc:
        print(f"run_bench: {exc}")
        return 1
    with open(path) as handle:
        print(render(json.load(handle)))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main(sys.argv[1:]))
