"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Every run here uses ``--size tiny`` (or the library at tiny size), so
the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from conftest import BENCH, ROOT

from benchkit import measure
from benchkit.clock import PROBE_ITERATIONS, REFERENCE_S, Clock, SpeedProbe, \
    kernel
from benchkit.tracing import NO_TRACE, Sampler, Tracer
from benchkit.workloads import (
    PHASES,
    MeshContention,
    PaperTables,
    VerifyCampaign,
    mesh_config,
    src_root,
)
from run import WORKLOAD_NAMES

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: Per-layer metrics that are host seconds or derived from them; every
#: other per-layer metric is an exact count or a ratio of counts.
TIMED_UNITS = ("s", "ns")


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def tiny_runs():
    """One tiny run of every workload, untraced and traced."""
    runs = {}
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            out = run_cli("--workload", name, "--seed", "7", "--seconds", "1",
                          "--trace", trace, "--size", "tiny")
            assert out.returncode == 0, out.stderr
            runs[name, trace] = out.stdout.strip().splitlines()
    return runs


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(tiny_runs, workload,
                                                    trace, section):
    lines = tiny_runs[workload, trace]
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} \
        == expected
    for metric in summary["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert any(line.startswith(f"digest {workload} ") for line in lines)
    host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
    assert set(host) == {"nproc", "cpu_model", "python", "git_commit",
                         "steal_s"}


def test_end_to_end_times_are_never_zero(tiny_runs):
    for name in WORKLOAD_NAMES:
        metrics = json.loads(tiny_runs[name, "0"][-1])["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), (name, metrics)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_two_runs_give_identical_counts_and_fingerprints(tiny_runs, workload):
    first = json.loads(tiny_runs[workload, "1"][-1])["metrics"]
    second_out = run_cli("--workload", workload, "--seed", "7", "--seconds",
                         "1", "--trace", "1", "--size", "tiny")
    second_lines = second_out.stdout.strip().splitlines()
    second = json.loads(second_lines[-1])["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] not in TIMED_UNITS
              and not m["name"].startswith("trace.")]
    assert {n: first[n]["value"] for n in counts} \
        == {n: second[n]["value"] for n in counts}
    digest = [l for l in tiny_runs[workload, "1"] if l.startswith("digest ")]
    assert digest == [l for l in second_lines if l.startswith("digest ")]


def test_seed_changes_only_the_seeded_workload():
    a = VerifyCampaign(tiny=True).setup(1)
    b = VerifyCampaign(tiny=True).setup(2)
    assert [case for _, case in a] != [case for _, case in b]
    assert [case for _, case in a] == \
        [case for _, case in VerifyCampaign(tiny=True).setup(1)]
    mesh = MeshContention(tiny=True)
    assert [k for k, _, _ in mesh.setup(1)] == [k for k, _, _ in mesh.setup(2)]


def tiny_fingerprints(workload):
    result = workload.run_pass(workload.setup(0), Clock())
    assert not result.errors
    return result.ops, dict(result.fingerprints)


@pytest.mark.parametrize("factory", [PaperTables, MeshContention,
                                     VerifyCampaign])
def test_wrong_reference_fingerprint_is_one_failed_operation(factory):
    workload = factory(tiny=True)
    ops, reference = tiny_fingerprints(workload)
    report = measure.run(workload, 0, 0.01, traced=False, reference=reference)
    assert (report.attempted, report.failed) == (ops, 0)
    key = sorted(reference)[0]
    reference[key] = "0" * len(reference[key])
    report = measure.run(workload, 0, 0.01, traced=False, reference=reference)
    assert (report.attempted, report.failed) == (ops, 1)
    assert report.messages[0].startswith(key)


def misaligned(workload):
    """A copy of ``workload`` whose System construction raises."""
    return replace(workload,
                   initial_memory={**workload.initial_memory, 0x1004: 1})


class RaisingTables(PaperTables):
    def setup(self, seed, tracer=NO_TRACE):
        scheduler, grids = super().setup(seed, tracer)
        spec = grids["E1"][0]
        spec.workload = misaligned(spec.workload)
        return scheduler, grids


class RaisingMesh(MeshContention):
    def setup(self, seed, tracer=NO_TRACE):
        points = super().setup(seed, tracer)
        key, config, workload = points[0]
        points[0] = (key, config, misaligned(workload))
        return points


class RaisingCampaign(VerifyCampaign):
    def setup(self, seed, tracer=NO_TRACE):
        cases = super().setup(seed, tracer)
        key, case = cases[0]
        cases[0] = (key, replace(case, inject="no-such-bug"))
        return cases


@pytest.mark.parametrize("factory", [RaisingTables, RaisingMesh,
                                     RaisingCampaign])
@pytest.mark.parametrize("traced", [False, True])
def test_raising_point_is_one_failed_operation(factory, traced):
    report = measure.run(factory(tiny=True), 0, 0.01, traced=traced)
    assert (report.passes, report.failed) == (1, 1)
    assert report.attempted > report.failed
    assert "Error" in report.messages[0]


def sample_point(interval, repeats):
    """Module shares and run-span coverage of one mesh-contention point."""
    workload = MeshContention().setup(0)
    _, config, kernel = next(p for p in workload
                             if p[0] == "locks-tas/if-sc")
    sampler = Sampler(src_root(), interval, PHASES)
    tracer = Tracer(sampler)
    from repro.system import System
    sampler.start()
    try:
        for _ in range(repeats):
            system = System(config, kernel.programs, kernel.initial_memory)
            with tracer.span("system.run", sampled=True):
                system.run()
    finally:
        sampler.stop()
    shares = {m: n / sampler.samples for m, n in sampler.modules.items()}
    coverage = sampler.samples * interval / tracer.total("system.run")
    return shares, coverage


def test_sampler_shares_agree_at_two_intervals():
    fine, fine_coverage = sample_point(0.004, repeats=1)
    coarse, coarse_coverage = sample_point(0.010, repeats=2)
    print(f"System.run coverage: {fine_coverage:.3f} at 4 ms, "
          f"{coarse_coverage:.3f} at 10 ms")
    for coverage in (fine_coverage, coarse_coverage):
        assert 0.5 < coverage < 1.5
    major = [m for m, share in fine.items() if share >= 0.05]
    assert "repro.sim.engine" in major and "repro.cpu.core" in major
    for module in major:
        assert abs(fine[module] - coarse.get(module, 0.0)) < 0.1, module


def test_clock_reads_the_probe_kernel_at_the_reference_speed():
    """Work that is the probe's own kernel must read, in reference
    seconds, as many probes' worth of REFERENCE_S, however fast the
    host runs now; the probes' own time is not part of the region."""
    speed = SpeedProbe()
    clock = Clock(speed)
    clock.calibrate()
    speed.start()
    try:
        with clock:
            for _ in range(40):
                kernel(PROBE_ITERATIONS)
    finally:
        speed.stop()
    clock.calibrate()
    assert len(clock.probes) >= 4
    wall, cpu = clock.reference()
    assert 0.7 < wall / (40 * REFERENCE_S) < 1.4
    assert 0.7 < cpu / (40 * REFERENCE_S) < 1.4


def test_clock_takes_remote_probes_out_of_the_region():
    clock = Clock()
    with clock.remote():
        pass
    clock.add_remote([(0.5, 0.5), (0.5, 0.25)], jobs=2)
    assert clock.wall < -0.4 and clock.cpu < -0.7
    assert clock.factors() == (REFERENCE_S / 0.5,
                               (REFERENCE_S / 0.5 + REFERENCE_S / 0.25) / 2)


def test_mesh_config_is_e15s_large_machine():
    config = mesh_config(32)
    assert (config.n_cores, config.n_homes) == (32, 8)
    assert config.interconnect.mesh_hop_latency == 4


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh-contention",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
