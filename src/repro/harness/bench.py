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

#: Keys every point of the optional "sharded" section must carry
#: (BENCH_5 onward; see sharded_bench_section).
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
    #: number of fused dispatches (trace-compiled execution; zero when
    #: the point runs with ``superblocks=False`` or nothing fuses).
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


def measure_sharded_point(label: str, config, workload, shards: int,
                          repeats: int = 1, mode: str = "fork") -> Dict:
    """Serial vs sharded throughput for one large point, honestly.

    Two throughput views are recorded, because they answer different
    questions:

    * ``sharded_wall_seconds`` / ``wall_speedup`` -- what *this host*
      measured.  On a box with fewer idle CPUs than shards (CI
      containers are often single-CPU) the workers time-slice one core
      and the wall clock cannot show a speedup; reporting it anyway is
      the honest baseline.
    * ``max_shard_busy_seconds`` / ``critical_path_speedup`` -- the
      longest any one worker spent *computing* (its wall time minus the
      time it sat blocked at the epoch barrier, as measured inside the
      worker).  On a host with ``shards`` idle CPUs the workers run
      concurrently and the wall clock converges to this critical path,
      so it is the hardware-independent capacity number.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    from repro.sim.sharded import run_sharded

    serial_wall = None
    serial_result = None
    for _ in range(repeats):
        system = System(config, workload.programs, workload.initial_memory)
        started = time.perf_counter()
        serial_result = system.run()
        wall = time.perf_counter() - started
        if serial_wall is None or wall < serial_wall:
            serial_wall = wall
    serial_wall = max(serial_wall, 1e-9)

    sharded_wall = None
    sharded_result = None
    for _ in range(repeats):
        started = time.perf_counter()
        candidate = run_sharded(config, workload.programs,
                                workload.initial_memory, shards=shards,
                                mode=mode)
        wall = time.perf_counter() - started
        if sharded_wall is None or wall < sharded_wall:
            sharded_wall = wall
            sharded_result = candidate
    sharded_wall = max(sharded_wall, 1e-9)
    telemetry = sharded_result.sharding
    busy = telemetry.get("busy_seconds") or [sharded_wall]
    max_busy = max(max(busy), 1e-9)

    return {
        "label": label,
        "shards": shards,
        "mode": telemetry["mode"],
        "events": sharded_result.events,
        "serial_events": serial_result.events,
        "serial_wall_seconds": round(serial_wall, 6),
        "serial_events_per_sec": round(serial_result.events / serial_wall, 1),
        "sharded_wall_seconds": round(sharded_wall, 6),
        "sharded_events_per_sec": round(
            sharded_result.events / sharded_wall, 1),
        "max_shard_busy_seconds": round(max_busy, 6),
        "critical_path_events_per_sec": round(
            sharded_result.events / max_busy, 1),
        "wall_speedup": round(serial_wall / sharded_wall, 3),
        "critical_path_speedup": round(serial_wall / max_busy, 3),
        "epochs": telemetry["epochs"],
        "crossings": telemetry.get("crossings", 0),
    }


def sharded_oracle_entry(label: str, config, workload, shards: int) -> Dict:
    """Fingerprint-equality evidence for the sharded section.

    Run on a configuration from the documented exact-match grid
    (docs/SHARDING.md), this proves the engine being benchmarked
    reproduces the serial oracle's stats tables bit for bit -- the same
    role the baseline fingerprints play for the main grids.
    """
    from repro.sim.sharded import run_sharded

    serial = System(config, workload.programs,
                    workload.initial_memory).run()
    sharded = run_sharded(config, workload.programs, workload.initial_memory,
                          shards=shards, mode="fork")
    return {
        "label": label,
        "shards": shards,
        "fingerprints_match":
            result_fingerprint(serial) == result_fingerprint(sharded),
        "fingerprint": result_fingerprint(sharded),
    }


def sharded_bench_section(points: List[Dict], oracle: Dict) -> Dict:
    """Assemble the optional ``"sharded"`` document section."""
    return {
        "host_cpus": os.cpu_count() or 1,
        "points": points,
        "oracle": oracle,
        "note": ("wall_speedup is what this host measured; on hosts with "
                 "fewer idle CPUs than shards the workers time-slice and "
                 "wall time cannot improve.  critical_path_speedup = "
                 "serial wall / max per-shard busy time (worker compute "
                 "excluding barrier blocking) is the capacity a host with "
                 ">= shards idle CPUs realises."),
    }


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
    sharded = doc.get("sharded")
    if sharded:
        lines.append(f"sharded (host has {sharded['host_cpus']} cpu(s)):")
        for point in sharded["points"]:
            lines.append(
                f"  {point['label']} x{point['shards']} shards: "
                f"serial {point['serial_events_per_sec']:,.0f} ev/s, "
                f"sharded wall {point['wall_speedup']:.2f}x, "
                f"critical path {point['critical_path_speedup']:.2f}x "
                f"({point['critical_path_events_per_sec']:,.0f} ev/s, "
                f"{point['epochs']} epochs)")
        oracle = sharded["oracle"]
        lines.append(
            f"  oracle {oracle['label']}: fingerprints_match="
            f"{oracle['fingerprints_match']}")
    return "\n".join(lines)
