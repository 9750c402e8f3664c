"""The committed benchmark artifacts are valid and their gains honest.

``BENCH_<n>.json`` files at the repo root are the measured perf history
of the simulator.  From BENCH_6 on they are written by
``examples/run_bench.py PARENT CHANGE`` in schema ``repro-bench/2``:
perfbench's workloads measured in alternating pairs against the
parent.  The newest such artifact must validate, name its host, mark
only gains that recompute from its own recorded runs under the 9-of-10
and quartile rules with every digest equal, and record paper-tables'
traced fusion coverage.  BENCH_2-5 (schema ``repro-bench/1``) are
history; BENCH_5's sharded section, which no later artifact carries,
is checked by name.
"""

import glob
import importlib.util
import json
import os
import re

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _driver():
    spec = importlib.util.spec_from_file_location(
        "run_bench", os.path.join(_REPO_ROOT, "examples", "run_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _driver()


def _load(path):
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def latest():
    """The newest committed schema-2 artifact."""
    found = {}
    for path in glob.glob(os.path.join(_REPO_ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match and _load(path).get("schema") == bench.SCHEMA:
            found[int(match.group(1))] = path
    if not found:
        pytest.skip(f"no {bench.SCHEMA} BENCH_<n>.json committed")
    return _load(found[max(found)])


def test_latest_bench_artifact_validates(latest):
    bench.validate_bench(latest)
    assert re.fullmatch(r"[0-9a-f]{40}", latest["parent"])
    assert re.fullmatch(r"[0-9a-f]{40}", latest["change"])
    assert (latest["pairs"], latest["traced_runs"]) == (10, 3)


def test_latest_bench_artifact_names_its_host(latest):
    host = latest["host"]
    assert host["nproc"] >= 1
    assert host["cpu_model"] and host["python"]


def test_latest_bench_artifact_gains_are_fingerprint_backed(latest):
    """Every marked gain recomputes from the recorded runs: at least 9
    of 10 pairs won, the median better than the parent's by more than
    its quartile distance, no more failed operations, equal digests."""
    for name, workload in latest["workloads"].items():
        failed = {side: sum(workload[side]["failed"])
                  for side in ("parent", "change")}
        for metric, entry in workload["end_to_end"].items():
            if not entry["gain"]:
                continue
            assert workload["fingerprints_match"] is True, (name, metric)
            assert len(set(workload["parent"]["digests"]
                           + workload["change"]["digests"])) == 1
            lower = entry["better"] == "lower"
            wins = sum(1 for p, c in zip(entry["parent"], entry["change"])
                       if (c < p if lower else c > p))
            assert wins >= 9, (name, metric, wins)
            q1, q3 = entry["parent_quartiles"]
            gap = entry["parent_median"] - entry["change_median"]
            assert (gap if lower else -gap) > q3 - q1, (name, metric)
            assert failed["change"] <= failed["parent"], (name, metric)


def test_latest_bench_artifact_records_fusion_coverage(latest):
    """Loop spans fuse on paper-tables' lock and barrier kernels, so a
    zero traced coverage on the change means fusion silently
    disengaged while the document was measured."""
    coverage = latest["workloads"]["paper-tables"]["per_layer"][
        "cpu.fusion_coverage"]
    assert len(coverage["parent"]) == len(coverage["change"]) == 3
    assert all(0.0 <= value <= 1.0
               for value in coverage["parent"] + coverage["change"])
    assert all(value > 0.0 for value in coverage["change"])


#: The keys BENCH_5 was validated against when ``repro-bench/1`` was
#: written: the document, each grid's points and totals, and the
#: sharded section.
_V1_DOC_KEYS = {"schema", "repeats", "grids"}
_V1_POINT_KEYS = {"label", "cycles", "events", "wall_seconds",
                  "events_per_sec", "cycles_per_sec", "fingerprint"}
_V1_TOTAL_KEYS = {"points", "events", "cycles", "wall_seconds",
                  "events_per_sec", "cycles_per_sec"}
_V1_SHARDED_KEYS = {
    "label", "shards", "mode", "events",
    "serial_wall_seconds", "serial_events_per_sec",
    "sharded_wall_seconds", "sharded_events_per_sec",
    "max_shard_busy_seconds", "critical_path_events_per_sec",
    "wall_speedup", "critical_path_speedup", "epochs", "crossings"}


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
    doc = _load(os.path.join(_REPO_ROOT, "BENCH_5.json"))
    assert _V1_DOC_KEYS <= set(doc) and doc["schema"] == "repro-bench/1"
    assert doc["grids"]
    for grid in doc["grids"].values():
        assert grid["points"]
        for point in grid["points"]:
            assert _V1_POINT_KEYS <= set(point), point.get("label")
        assert _V1_TOTAL_KEYS <= set(grid["totals"])
    sharded = doc["sharded"]
    assert {"host_cpus", "points", "oracle"} <= set(sharded)
    assert sharded["host_cpus"] >= 1
    assert sharded["oracle"]["fingerprints_match"] is True
    assert sharded["points"]
    for point in sharded["points"]:
        assert _V1_SHARDED_KEYS <= set(point), point.get("label")
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
