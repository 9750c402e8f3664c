"""Perf-bench harness: events/sec and simulated-cycles/sec per grid point.

Every PR that touches the simulator's hot path needs a measured
trajectory, not an anecdote.  This module times each point of the
canonical experiment grids (E1 ordering stalls, E9 scaling) directly
against a live :class:`~repro.system.System` -- wall-clock per point,
dispatched events per second, simulated cycles per second -- and emits a
``BENCH_<n>.json`` document.  Alongside the throughput numbers every
point records its :func:`~repro.harness.parallel.result_fingerprint`,
so a bench file doubles as proof that an optimization left the
experiment stats tables byte-identical to the baseline it is compared
against.

Entry points:

* ``examples/run_bench.py``   -- the CLI (full run, ``--quick``,
  ``--check`` smoke mode, ``--baseline`` comparison);
* ``benchmarks/perf/``        -- pytest wrappers (marked ``slow``).
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.harness.experiments import e1_plan, e9_plan, mem_plan
from repro.harness.parallel import RunSpec, result_fingerprint
from repro.system import System

#: Schema identifier written into every bench document.
BENCH_SCHEMA = "repro-bench/1"

#: Top-level keys every bench document must carry.
_REQUIRED_DOC_KEYS = ("schema", "repeats", "grids")

#: Keys every per-point record must carry.
_REQUIRED_POINT_KEYS = ("label", "cycles", "events", "wall_seconds",
                        "events_per_sec", "cycles_per_sec", "fingerprint")

#: Keys every per-grid totals record must carry.
_REQUIRED_TOTAL_KEYS = ("points", "events", "cycles", "wall_seconds",
                        "events_per_sec", "cycles_per_sec")

#: Keys every point of the optional "sharded" section must carry.
#: Only the committed BENCH_5 has one; nothing writes it any more.
_REQUIRED_SHARDED_KEYS = (
    "label", "shards", "mode", "events",
    "serial_wall_seconds", "serial_events_per_sec",
    "sharded_wall_seconds", "sharded_events_per_sec",
    "max_shard_busy_seconds", "critical_path_events_per_sec",
    "wall_speedup", "critical_path_speedup", "epochs", "crossings")


class BenchError(RuntimeError):
    """A bench run or bench-document comparison failed."""


@dataclass
class BenchPoint:
    """Measured throughput of one (config, workload) simulation point."""

    label: str
    cycles: int
    events: int
    instructions: int
    wall_seconds: float
    events_per_sec: float
    cycles_per_sec: float
    fingerprint: str
    #: Dynamic instructions retired inside fused superblocks and the
    #: number of fused dispatches (trace-compiled loop spans; zero when
    #: the point's programs have no loop span).
    #: These ride along in the document but are not required keys, so
    #: bench files recorded before fusion existed still validate.
    fused_instructions: int = 0
    fused_blocks: int = 0
    fusion_coverage: float = 0.0


def measure_point(spec: RunSpec, repeats: int = 1) -> BenchPoint:
    """Simulate one point ``repeats`` times; keep the best wall time.

    Simulation is deterministic, so every repeat produces the identical
    result; the minimum wall time is the least-noisy throughput sample.

    Only ``System.run()`` is timed: building the ``System`` (program
    decode, superblock preparation) happens before the clock starts, so
    construction cost never shows in a bench document.  The repository
    benchmark's traced run reports it as ``system.build_s``
    (``perfbench/README.md``).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best_wall = None
    result = None
    for _ in range(repeats):
        system = System(spec.config, spec.workload.programs,
                        spec.workload.initial_memory)
        started = time.perf_counter()
        result = system.run()
        wall = time.perf_counter() - started
        if best_wall is None or wall < best_wall:
            best_wall = wall
    wall = max(best_wall, 1e-9)
    return BenchPoint(
        label=spec.label,
        cycles=result.cycles,
        events=result.events,
        instructions=result.total_instructions(),
        wall_seconds=round(best_wall, 6),
        events_per_sec=round(result.events / wall, 1),
        cycles_per_sec=round(result.cycles / wall, 1),
        fingerprint=result_fingerprint(result),
        fused_instructions=result.fused_instructions(),
        fused_blocks=result.fused_blocks(),
        fusion_coverage=round(result.fusion_coverage(), 4),
    )


def bench_grids(grids: Dict[str, List[RunSpec]], repeats: int = 1,
                progress=None) -> Dict:
    """Measure every point of every grid; returns the bench document."""
    doc: Dict = {"schema": BENCH_SCHEMA, "repeats": repeats, "grids": {}}
    for grid_id, specs in grids.items():
        points = []
        for spec in specs:
            if progress is not None:
                progress(f"{grid_id}: {spec.label}")
            points.append(measure_point(spec, repeats=repeats))
        events = sum(p.events for p in points)
        cycles = sum(p.cycles for p in points)
        wall = sum(p.wall_seconds for p in points)
        doc["grids"][grid_id] = {
            "points": [asdict(p) for p in points],
            "totals": {
                "points": len(points),
                "events": events,
                "cycles": cycles,
                "wall_seconds": round(wall, 6),
                "events_per_sec": round(events / wall, 1) if wall else 0.0,
                "cycles_per_sec": round(cycles / wall, 1) if wall else 0.0,
            },
        }
    return doc


def default_grids(quick: bool = False) -> Dict[str, List[RunSpec]]:
    """The canonical bench grids: E1 (ordering stalls), E9 (scaling),
    and MEM (coherence-heavy memory-system fast path)."""
    if quick:
        return {"E1": e1_plan(n_cores=4, scale=0.3),
                "E9": e9_plan(core_counts=(2, 4), scale=0.3),
                "MEM": mem_plan(n_cores=4, scale=0.3)}
    return {"E1": e1_plan(), "E9": e9_plan(), "MEM": mem_plan()}


def check_grids() -> Dict[str, List[RunSpec]]:
    """Three small points for the ``--check`` smoke mode (seconds, not
    minutes -- this runs in the default test pass)."""
    return {"E1-smoke": e1_plan(n_cores=2, scale=0.2)[:3]}


def validate_bench(doc: Dict) -> None:
    """Assert ``doc`` is a structurally valid bench document.

    Raises :class:`BenchError` naming the first missing/invalid field.
    """
    for key in _REQUIRED_DOC_KEYS:
        if key not in doc:
            raise BenchError(f"bench document missing key {key!r}")
    if doc["schema"] != BENCH_SCHEMA:
        raise BenchError(
            f"unknown bench schema {doc['schema']!r} (want {BENCH_SCHEMA!r})")
    if not doc["grids"]:
        raise BenchError("bench document has no grids")
    for grid_id, grid in doc["grids"].items():
        if "points" not in grid or "totals" not in grid:
            raise BenchError(f"grid {grid_id!r} missing points/totals")
        if not grid["points"]:
            raise BenchError(f"grid {grid_id!r} has no points")
        for point in grid["points"]:
            for key in _REQUIRED_POINT_KEYS:
                if key not in point:
                    raise BenchError(
                        f"grid {grid_id!r} point missing key {key!r}")
        for key in _REQUIRED_TOTAL_KEYS:
            if key not in grid["totals"]:
                raise BenchError(f"grid {grid_id!r} totals missing {key!r}")
    sharded = doc.get("sharded")
    if sharded is not None:
        for key in ("host_cpus", "points", "oracle"):
            if key not in sharded:
                raise BenchError(f"sharded section missing key {key!r}")
        if not sharded["points"]:
            raise BenchError("sharded section has no points")
        for point in sharded["points"]:
            for key in _REQUIRED_SHARDED_KEYS:
                if key not in point:
                    raise BenchError(
                        f"sharded point missing key {key!r}")
        if "fingerprints_match" not in sharded["oracle"]:
            raise BenchError(
                "sharded oracle entry missing 'fingerprints_match'")


def attach_baseline(doc: Dict, baseline: Dict) -> None:
    """Embed ``baseline`` measurements into ``doc`` and compute speedups.

    Every grid shared by both documents must cover the same point labels
    with *identical result fingerprints* -- an engine change that altered
    any stats table is rejected here, not silently reported as a speedup.
    """
    validate_bench(baseline)
    speedup = {}
    base_section = {}
    for grid_id, grid in doc["grids"].items():
        base_grid = baseline["grids"].get(grid_id)
        if base_grid is None:
            continue
        ours = {p["label"]: p for p in grid["points"]}
        theirs = {p["label"]: p for p in base_grid["points"]}
        if set(ours) != set(theirs):
            raise BenchError(
                f"grid {grid_id!r}: point labels differ from baseline "
                f"(ours-only: {sorted(set(ours) - set(theirs))}, "
                f"baseline-only: {sorted(set(theirs) - set(ours))})")
        for label, point in ours.items():
            if point["fingerprint"] != theirs[label]["fingerprint"]:
                raise BenchError(
                    f"grid {grid_id!r} point {label!r}: result fingerprint "
                    "differs from baseline -- the engines do not produce "
                    "identical stats tables")
        base_section[grid_id] = {"totals": base_grid["totals"]}
        speedup[grid_id] = {
            "events_per_sec": round(
                grid["totals"]["events_per_sec"]
                / base_grid["totals"]["events_per_sec"], 3),
            "cycles_per_sec": round(
                grid["totals"]["cycles_per_sec"]
                / base_grid["totals"]["cycles_per_sec"], 3),
            "fingerprints_match": True,
        }
    if not speedup:
        raise BenchError("baseline shares no grids with this bench run")
    doc["baseline"] = base_section
    doc["speedup"] = speedup


def next_bench_path(directory: str = ".") -> str:
    """The next free ``BENCH_<n>.json`` path in ``directory``."""
    taken = []
    for name in os.listdir(directory):
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if match:
            taken.append(int(match.group(1)))
    n = max(taken) + 1 if taken else 1
    return os.path.join(directory, f"BENCH_{n}.json")


def write_bench(doc: Dict, path: str) -> str:
    validate_bench(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict:
    with open(path) as handle:
        doc = json.load(handle)
    validate_bench(doc)
    return doc


def render_bench(doc: Dict) -> str:
    """One summary line per grid (plus speedup when a baseline is set)."""
    lines = []
    for grid_id, grid in sorted(doc["grids"].items()):
        totals = grid["totals"]
        line = (f"{grid_id}: {totals['points']} points, "
                f"{totals['events']} events in {totals['wall_seconds']:.2f}s "
                f"-> {totals['events_per_sec']:,.0f} events/s, "
                f"{totals['cycles_per_sec']:,.0f} sim-cycles/s")
        speedup = doc.get("speedup", {}).get(grid_id)
        if speedup:
            line += (f"  ({speedup['events_per_sec']:.2f}x events/s vs "
                     "baseline, stats tables identical)")
        lines.append(line)
    return "\n".join(lines)
