"""Perf-bench harness: document schema, baseline comparison, CLI smoke.

The heavy full-grid measurements live in ``benchmarks/perf`` (marked
``slow``); here we test the document plumbing with hand-built bench
documents and run the CLI's ``--check`` smoke mode once.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA,
    BenchError,
    attach_baseline,
    bench_grids,
    check_grids,
    load_bench,
    measure_point,
    next_bench_path,
    render_bench,
    validate_bench,
    write_bench,
)
from repro.harness.parallel import RunSpec
from repro.isa import Assembler
from repro.sim.config import SystemConfig
from repro.workloads.base import Workload

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _point(label="p0", fingerprint="f0", events_per_sec=100.0):
    return {
        "label": label, "cycles": 1000, "events": 5000, "instructions": 900,
        "wall_seconds": 0.05, "events_per_sec": events_per_sec,
        "cycles_per_sec": 20000.0, "fingerprint": fingerprint,
    }


def _doc(**point_kwargs):
    point = _point(**point_kwargs)
    return {
        "schema": BENCH_SCHEMA,
        "repeats": 1,
        "grids": {
            "G": {
                "points": [point],
                "totals": {
                    "points": 1, "events": point["events"],
                    "cycles": point["cycles"],
                    "wall_seconds": point["wall_seconds"],
                    "events_per_sec": point["events_per_sec"],
                    "cycles_per_sec": point["cycles_per_sec"],
                },
            }
        },
    }


def test_validate_accepts_wellformed_doc():
    validate_bench(_doc())


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.pop("schema"), "missing key"),
    (lambda d: d.update(schema="other/9"), "unknown bench schema"),
    (lambda d: d.update(grids={}), "no grids"),
    (lambda d: d["grids"]["G"].pop("totals"), "missing points/totals"),
    (lambda d: d["grids"]["G"].update(points=[]), "has no points"),
    (lambda d: d["grids"]["G"]["points"][0].pop("fingerprint"),
     "point missing key"),
    (lambda d: d["grids"]["G"]["totals"].pop("events_per_sec"),
     "totals missing"),
])
def test_validate_rejects_malformed_docs(mutate, match):
    doc = _doc()
    mutate(doc)
    with pytest.raises(BenchError, match=match):
        validate_bench(doc)


def _doc_with_sharded_section():
    """A well-formed document carrying BENCH_5's sharded section, the
    only artifact that has one."""
    with open(os.path.join(_REPO_ROOT, "BENCH_5.json")) as handle:
        sharded = json.load(handle)["sharded"]
    return dict(_doc(), sharded=sharded)


def test_validate_accepts_bench_5_sharded_section():
    validate_bench(_doc_with_sharded_section())


@pytest.mark.parametrize("mutate,match", [
    (lambda s: s.pop("host_cpus"), "sharded section missing key 'host_cpus'"),
    (lambda s: s.pop("points"), "sharded section missing key 'points'"),
    (lambda s: s.pop("oracle"), "sharded section missing key 'oracle'"),
    (lambda s: s.update(points=[]), "sharded section has no points"),
    (lambda s: s["oracle"].pop("fingerprints_match"),
     "oracle entry missing 'fingerprints_match'"),
], ids=["no-host-cpus", "no-points", "no-oracle", "empty-points",
        "oracle-unmatched"])
def test_validate_rejects_malformed_sharded_section(mutate, match):
    doc = _doc_with_sharded_section()
    mutate(doc["sharded"])
    with pytest.raises(BenchError, match=match):
        validate_bench(doc)


@pytest.mark.parametrize("key", [
    "label", "shards", "mode", "events",
    "serial_wall_seconds", "serial_events_per_sec",
    "sharded_wall_seconds", "sharded_events_per_sec",
    "max_shard_busy_seconds", "critical_path_events_per_sec",
    "wall_speedup", "critical_path_speedup", "epochs", "crossings"])
def test_validate_rejects_sharded_point_missing_key(key):
    doc = _doc_with_sharded_section()
    doc["sharded"]["points"][-1].pop(key)
    with pytest.raises(BenchError, match=f"sharded point missing key '{key}'"):
        validate_bench(doc)


def test_attach_baseline_computes_speedup():
    doc = _doc(events_per_sec=200.0)
    baseline = _doc(events_per_sec=100.0)
    attach_baseline(doc, baseline)
    assert doc["speedup"]["G"]["events_per_sec"] == 2.0
    assert doc["speedup"]["G"]["fingerprints_match"] is True
    assert "totals" in doc["baseline"]["G"]


def test_attach_baseline_rejects_fingerprint_mismatch():
    """A speedup over *different results* is not a speedup."""
    doc = _doc(fingerprint="new")
    baseline = _doc(fingerprint="old")
    with pytest.raises(BenchError, match="fingerprint"):
        attach_baseline(doc, baseline)


def test_attach_baseline_rejects_label_mismatch():
    doc = _doc(label="a")
    baseline = _doc(label="b")
    with pytest.raises(BenchError, match="labels differ"):
        attach_baseline(doc, baseline)


def test_attach_baseline_requires_shared_grids():
    doc = _doc()
    baseline = _doc()
    baseline["grids"]["H"] = baseline["grids"].pop("G")
    with pytest.raises(BenchError, match="shares no grids"):
        attach_baseline(doc, baseline)


def test_write_load_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    write_bench(_doc(), path)
    assert load_bench(path) == _doc()


def test_next_bench_path_increments(tmp_path):
    assert next_bench_path(str(tmp_path)).endswith("BENCH_1.json")
    (tmp_path / "BENCH_3.json").write_text("{}")
    assert next_bench_path(str(tmp_path)).endswith("BENCH_4.json")


def test_render_mentions_speedup_only_with_baseline():
    doc = _doc(events_per_sec=150.0)
    assert "baseline" not in render_bench(doc)
    attach_baseline(doc, _doc(events_per_sec=100.0))
    assert "1.50x events/s vs baseline" in render_bench(doc)


def test_measure_point_repeats_validated():
    spec = check_grids()["E1-smoke"][0]
    with pytest.raises(ValueError):
        measure_point(spec, repeats=0)


def test_bench_grids_measures_smoke_grid():
    """One real (tiny) measurement pass through the whole pipeline."""
    doc = bench_grids(check_grids())
    validate_bench(doc)
    points = doc["grids"]["E1-smoke"]["points"]
    assert len(points) == 3
    for point in points:
        assert point["events"] > 0
        assert point["events_per_sec"] > 0
        assert len(point["fingerprint"]) == 64  # sha256 hex
        # The smoke points are ALU-heavy spin loops: superblock fusion
        # must engage on every one of them (ISSUE 7 tier-1 gate).
        assert point["fused_instructions"] > 0
        assert 0.0 < point["fusion_coverage"] <= 1.0


def test_cli_check_smoke_mode():
    """`run_bench.py --check` measures 3 points, validates, writes nothing."""
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(_REPO_ROOT, "examples", "run_bench.py"),
         "--check"],
        capture_output=True, text=True, env=env, cwd=_REPO_ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "schema ok" in proc.stdout
    assert "fusion coverage nonzero" in proc.stdout
    assert "E1-smoke" in proc.stdout


def _run_bench_module():
    spec = importlib.util.spec_from_file_location(
        "run_bench", os.path.join(_REPO_ROOT, "examples", "run_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_check_fails_when_no_span_would_be_compiled(monkeypatch, capsys):
    """Only loop spans fuse, so a smoke point of straight-line code
    retires nothing fused and ``--check`` fails on it."""
    asm = Assembler("straight").li(1, 1).li(2, 2).add(3, 1, 2)
    program = asm.store(3, base=0).halt().build()
    grid = {"E1-smoke": [RunSpec("straight|sc", SystemConfig(n_cores=1),
                                 Workload("straight", [program]))]}
    bench = _run_bench_module()
    monkeypatch.setattr(bench, "check_grids", lambda: grid)
    assert bench.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "zero superblock fusion coverage on: straight|sc" in out


def test_cli_superblock_stats_prints_coverage_table():
    """`run_bench.py --check --superblock-stats` prints the fusion
    coverage table instead of timing a bench."""
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(_REPO_ROOT, "examples", "run_bench.py"),
         "--check", "--superblock-stats"],
        capture_output=True, text=True, env=env, cwd=_REPO_ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "coverage" in proc.stdout
    assert "mean-len" in proc.stdout
    assert "fused-instr" in proc.stdout
    assert "locks-tas|sc" in proc.stdout
    assert "events/s" not in proc.stdout


def test_cli_rejects_unknown_arguments():
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(_REPO_ROOT, "examples", "run_bench.py"),
         "--frobnicate"],
        capture_output=True, text=True, env=env, cwd=_REPO_ROOT, timeout=60,
    )
    assert proc.returncode == 1
    assert "unknown argument" in proc.stdout


def test_cli_profile_prints_hotspots():
    """`run_bench.py --profile N` profiles one point, top-N by tottime."""
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(_REPO_ROOT, "examples", "run_bench.py"),
         "--profile", "5"],
        capture_output=True, text=True, env=env, cwd=_REPO_ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "profiling" in proc.stdout
    assert "tottime" in proc.stdout


def test_cli_profile_rejects_bad_values():
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    for bad in ("zero", "0"):
        proc = subprocess.run(
            [sys.executable,
             os.path.join(_REPO_ROOT, "examples", "run_bench.py"),
             "--profile", bad],
            capture_output=True, text=True, env=env, cwd=_REPO_ROOT,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "--profile" in proc.stdout
