"""The committed benchmark artifact is valid and its speedups are honest.

``BENCH_<n>.json`` files at the repo root are the measured perf history
of the engine.  This tier-2 check keeps the *latest* one honest: it must
validate against the ``repro-bench/1`` schema, and every speedup it
claims must carry ``fingerprints_match: true`` -- i.e. the comparison
against its baseline was made with byte-identical stats tables, not
after a behaviour change.  BENCH_5's sharded section, which no later
artifact will carry, is checked by name.
"""

import glob
import os
import re

import pytest

from repro.harness.bench import BENCH_SCHEMA, load_bench

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _latest_bench_path():
    paths = {}
    for path in glob.glob(os.path.join(_REPO_ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            paths[int(match.group(1))] = path
    if not paths:
        pytest.skip("no BENCH_<n>.json committed at the repo root")
    return paths[max(paths)]


def test_latest_bench_artifact_validates():
    doc = load_bench(_latest_bench_path())  # load_bench validates
    assert doc["schema"] == BENCH_SCHEMA


def test_latest_bench_artifact_speedups_are_fingerprint_backed():
    doc = load_bench(_latest_bench_path())
    speedup = doc.get("speedup")
    assert speedup, "latest bench artifact claims no speedups " \
                    "(run run_bench.py with --baseline)"
    for grid_id, entry in speedup.items():
        assert entry.get("fingerprints_match") is True, (
            f"grid {grid_id!r}: speedup recorded without fingerprint "
            "equality against the baseline")
        assert entry["events_per_sec"] > 0
        assert entry["cycles_per_sec"] > 0


def test_latest_bench_artifact_records_fusion_coverage():
    """From BENCH_4.json on, every point carries its trace-compiled
    execution coverage, and the ALU-heavy E1/E9 grids must show fusion
    actually engaged -- a zero-coverage artifact means the superblock
    knob was silently off while the bench was recorded."""
    path = _latest_bench_path()
    match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    if int(match.group(1)) < 4:
        pytest.skip("fusion stats first recorded in BENCH_4.json")
    doc = load_bench(path)
    for grid_id in ("E1", "E9"):
        points = doc["grids"][grid_id]["points"]
        for point in points:
            assert "fused_instructions" in point, (grid_id, point["label"])
            assert 0.0 <= point["fusion_coverage"] <= 1.0
        assert any(p["fused_instructions"] > 0 for p in points), (
            f"grid {grid_id!r}: no point retired any fused instructions")


def test_bench_5_records_sharded_capacity():
    """BENCH_5.json carries the serial-vs-sharded capacity section of the
    since-deleted sharded engine (large mesh configs through forked
    shard workers), with two throughput views: the wall clock its host
    measured, and the critical path (max per-shard busy time).  The
    section's claim -- sharded events/s beating the single-process
    engine on large configs -- was recorded on the critical-path
    metric, and its oracle entry records fingerprint equality on a
    small crossbar config.  No code writes this section any more, so
    the check is pinned to the one artifact that has it; EXPERIMENTS.md
    E15 records why sharding was withdrawn."""
    doc = load_bench(os.path.join(_REPO_ROOT, "BENCH_5.json"))
    sharded = doc["sharded"]  # load_bench validated its schema
    assert sharded["host_cpus"] >= 1
    assert sharded["oracle"]["fingerprints_match"] is True
    for point in sharded["points"]:
        assert point["shards"] >= 2, point["label"]
        assert point["mode"] == "fork", point["label"]
        assert point["events"] > 0
        assert point["serial_events_per_sec"] > 0
        assert point["critical_path_events_per_sec"] > 0
        # Busy time can never exceed the measured wall time.
        assert point["max_shard_busy_seconds"] \
            <= point["sharded_wall_seconds"] + 1e-6, point["label"]
    assert any(p["critical_path_speedup"] >= 1.5 for p in sharded["points"]), (
        "no sharded point records the >= 1.5x critical-path speedup over "
        "the single-process engine on a large config")
