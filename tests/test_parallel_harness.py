"""The parallel sweep runner: determinism, dedup/caching, failure paths."""

from __future__ import annotations

import os
import pickle
from dataclasses import replace

import pytest

from repro.faults import PAUSE, FaultPlan, NodeFault, NodeFaultPlan
from repro.harness.experiments import (
    e1_plan,
    e2_build,
    e2_plan,
    e2_transparency,
    e3_plan,
    e6_plan,
)
from repro.harness.parallel import (
    RunSpec,
    SweepError,
    SweepScheduler,
    execute_specs,
    point_fingerprint,
    result_fingerprint,
    simulate_point,
)
from repro.isa.program import Assembler
from repro.sim.config import (
    InterconnectConfig,
    SpeculationMode,
    SystemConfig,
    Topology,
)
from repro.workloads.base import Workload
from repro.workloads.producer_consumer import pingpong
from repro.workloads.protocols import gossip
from repro.workloads.suite import standard_suite
from tests.conftest import small_config


def _trivial_workload(n_threads: int = 1, name: str = "trivial",
                      validate=None, extra_nops: int = 0) -> Workload:
    """Each thread stores one word: four instructions, plus
    ``extra_nops``."""
    programs = []
    for tid in range(n_threads):
        asm = Assembler(f"{name}.t{tid}")
        asm.li(1, 0x1_0000).li(2, tid + 1)
        for _ in range(extra_nops):
            asm.nop()
        asm.store(2, base=1, offset=8 * tid)
        asm.halt()
        programs.append(asm.build())
    return Workload(name, programs, {}, validate=validate)


def _broken_workload() -> Workload:
    """A workload whose system construction fails fast in the worker
    (misaligned initial memory), exercising the failure path."""
    asm = Assembler("broken.t0")
    asm.halt()
    return Workload("broken", [asm.build()], {3: 1})


# ------------------------------------------------------------ fingerprints

def test_fingerprint_stable_across_workload_rebuilds():
    # Factories use a process-global label counter, so two builds of the
    # same workload differ in label *names*; the fingerprint must cover
    # only the resolved instruction streams and match.
    config = small_config(2)
    a = standard_suite(2, 0.1)["locks-ticket"]
    b = standard_suite(2, 0.1)["locks-ticket"]
    assert a is not b
    assert point_fingerprint(config, a) == point_fingerprint(config, b)


def test_fingerprint_sensitive_to_config_and_workload():
    config = small_config(2)
    wl = _trivial_workload(2)
    spec_config = config.with_speculation(SpeculationMode.ON_DEMAND)
    assert point_fingerprint(config, wl) != point_fingerprint(spec_config, wl)
    other = _trivial_workload(2, name="other")
    assert point_fingerprint(config, wl) != point_fingerprint(config, other)


# -------------------------------------------------- serial == parallel

def test_parallel_rows_bit_identical_to_serial():
    kwargs = dict(n_cores=2, scale=0.1)
    serial = SweepScheduler(jobs=1)
    serial.add("E2", e2_plan(**kwargs))
    serial.run()
    table_serial = e2_build(serial.results_for("E2"), **kwargs)

    parallel = SweepScheduler(jobs=2)
    parallel.add("E2", e2_plan(**kwargs))
    parallel.run()
    table_parallel = e2_build(parallel.results_for("E2"), **kwargs)

    assert table_serial.rows == table_parallel.rows
    assert table_serial.render() == table_parallel.render()
    assert table_serial.data == table_parallel.data


@pytest.mark.parametrize("config,wl,fault_plan,node_plan", [
    (small_config(8), gossip(8), None, None),
    (replace(small_config(8), interconnect=InterconnectConfig(
        topology=Topology.MESH, mesh_hop_latency=2)), gossip(8), None, None),
    (small_config(4), pingpong(2, rounds=6),
     FaultPlan(seed=5, jitter_prob=0.1, max_jitter=4, dup_prob=0.05),
     NodeFaultPlan(faults=(NodeFault(1, PAUSE, 200, 150),))),
], ids=["gossip8-xbar", "gossip8-mesh", "pingpong4-chaos"])
def test_worker_process_point_matches_in_process_run(config, wl, fault_plan,
                                                     node_plan):
    # Two pending points under jobs=2: each runs in a worker process,
    # which receives the point's fault and node-fault plans.
    scheduler = SweepScheduler(jobs=2)
    scheduler.add("g", [RunSpec("point", config, wl, fault_plan=fault_plan,
                                node_plan=node_plan),
                        RunSpec("plain", small_config(1),
                                _trivial_workload())])
    scheduler.run()
    in_worker = scheduler.results_for("g")["point"]
    in_process, _seconds = simulate_point(config, wl.programs,
                                          wl.initial_memory, fault_plan,
                                          node_plan)
    assert result_fingerprint(in_worker) == result_fingerprint(in_process)
    assert in_worker.events == in_process.events


def test_experiment_call_jobs_matches_serial():
    serial = e2_transparency(n_cores=2, scale=0.1, jobs=1)
    parallel = e2_transparency(n_cores=2, scale=0.1, jobs=2)
    assert serial.rows == parallel.rows


# ------------------------------------------------------- dedup / caching

def test_cross_experiment_dedup_counts():
    kwargs = dict(n_cores=2, scale=0.1)
    scheduler = SweepScheduler(jobs=1)
    scheduler.add("E1", e1_plan(**kwargs))           # 7 workloads x 3 models
    assert scheduler.unique_points == 21
    assert scheduler.duplicate_hits == 0
    # E2's three base-* points per workload are E1's points exactly.
    scheduler.add("E2", e2_plan(**kwargs))           # 7 x 6
    assert scheduler.unique_points == 21 + 21
    assert scheduler.duplicate_hits == 21
    # E6's continuous probes coincide with E3's continuous half.
    scheduler.add("E3", e3_plan(**kwargs))           # 7 x 2, on-demand == if-tso
    scheduler.add("E6", e6_plan(**kwargs))           # 7, all cached in E3
    assert scheduler.duplicate_hits == 21 + 7 + 7
    report = scheduler.run()
    assert report.unique_points == scheduler.unique_points
    assert len(report.point_seconds) == scheduler.unique_points


def test_rerun_uses_cache():
    scheduler = SweepScheduler(jobs=1)
    scheduler.add("first", [RunSpec("p0", small_config(1),
                                    _trivial_workload())])
    first = scheduler.run()
    assert first.unique_points == 1 and first.cached_hits == 0
    # Adding a second grid with the same point then re-running must not
    # simulate anything new.
    scheduler.add("second", [RunSpec("other-label", small_config(1),
                                     _trivial_workload())])
    second = scheduler.run()
    assert second.unique_points == 0
    assert second.cached_hits == 1
    assert scheduler.results_for("first")["p0"] is \
        scheduler.results_for("second")["other-label"]


def test_results_for_before_run_raises():
    scheduler = SweepScheduler(jobs=1)
    scheduler.add("g", [RunSpec("p", small_config(1), _trivial_workload())])
    with pytest.raises(SweepError, match="not simulated yet"):
        scheduler.results_for("g")


def test_duplicate_label_rejected():
    scheduler = SweepScheduler(jobs=1)
    with pytest.raises(ValueError, match="duplicate label"):
        scheduler.add("g", [
            RunSpec("p", small_config(1), _trivial_workload()),
            RunSpec("p", small_config(1), _trivial_workload(name="x")),
        ])


def test_thread_count_mismatch_rejected():
    scheduler = SweepScheduler(jobs=1)
    with pytest.raises(ValueError, match="2 threads"):
        scheduler.add("g", [RunSpec("p", small_config(1),
                                    _trivial_workload(2))])


# ------------------------------------------------------------ failure paths

def test_simulation_error_is_wrapped_with_point_label_serial():
    scheduler = SweepScheduler(jobs=1)
    scheduler.add("g", [RunSpec("broken-point", small_config(1),
                                _broken_workload())])
    with pytest.raises(SweepError, match="broken-point"):
        scheduler.run()


def test_simulation_error_is_wrapped_with_point_label_parallel():
    scheduler = SweepScheduler(jobs=2)
    scheduler.add("g", [
        RunSpec("ok-point", small_config(1), _trivial_workload()),
        RunSpec("broken-point", small_config(1), _broken_workload()),
    ])
    with pytest.raises(SweepError, match="broken-point"):
        scheduler.run()


def test_dead_worker_surfaces_clear_error_instead_of_hanging():
    scheduler = SweepScheduler(jobs=2, worker=_killing_worker)
    scheduler.add("g", [
        RunSpec("a", small_config(1), _trivial_workload()),
        RunSpec("b", small_config(1), _trivial_workload(name="b")),
    ])
    with pytest.raises(SweepError, match="worker process died"):
        scheduler.run()


def test_validation_failure_is_wrapped():
    def bad_validate(result):
        assert False, "wrong answer"

    scheduler = SweepScheduler(jobs=1)
    scheduler.add("g", [RunSpec("bad", small_config(1),
                                _trivial_workload(validate=bad_validate))])
    with pytest.raises(SweepError, match="wrong answer"):
        scheduler.run()


def test_check_false_skips_validation():
    def bad_validate(result):
        raise AssertionError("should not run")

    results = execute_specs(
        [RunSpec("bad", small_config(1),
                 _trivial_workload(validate=bad_validate), check=False)],
        jobs=1)
    assert results["bad"].cycles > 0


# ------------------------------------------------------ execution paths
#
# run() has exactly two paths: in this process (jobs=1 or one pending
# point, no resilience option) and up to ``jobs`` worker processes that
# each run point after point through ResilientPointRunner (everything
# else).

_PID_DIR_ENV = "REPRO_TEST_PID_DIR"


def _pid_recording_worker(config, programs, initial_memory, fault_plan=None,
                          node_plan=None):
    path = os.path.join(os.environ[_PID_DIR_ENV], programs[0].name)
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))
    return simulate_point(config, programs, initial_memory, fault_plan)


def _worker_pids(tmp_path, specs, **options):
    scheduler = SweepScheduler(worker=_pid_recording_worker, **options)
    scheduler.add("g", specs)
    scheduler.run()
    assert set(scheduler.results_for("g")) == {s.label for s in specs}
    return [int((tmp_path / spec.workload.programs[0].name).read_text())
            for spec in specs]


def test_single_pending_point_runs_in_process(tmp_path, monkeypatch):
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    spec = RunSpec("only", small_config(1), _trivial_workload())
    assert _worker_pids(tmp_path, [spec], jobs=4) == [os.getpid()]


def test_parallel_sweep_runs_its_points_in_jobs_worker_processes(
        tmp_path, monkeypatch):
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    specs = [RunSpec(name, small_config(1), _trivial_workload(name=name))
             for name in ("a", "b", "c", "d", "e")]
    pids = _worker_pids(tmp_path, specs, jobs=2)
    assert os.getpid() not in pids
    assert len(set(pids)) == 2


def _order_recording_worker(config, programs, initial_memory,
                            fault_plan=None, node_plan=None):
    with open(os.path.join(os.environ[_PID_DIR_ENV], "order"), "a") as fh:
        fh.write(f"{programs[0].name}\n")
    return simulate_point(config, programs, initial_memory, fault_plan)


def test_points_start_longest_first_with_ties_in_declared_order(
        tmp_path, monkeypatch):
    # The runner (forced by point_timeout) has one worker, which sees
    # the points in the order they were handed out: most cores first,
    # then most static instructions, equal estimates as declared.
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    declared = [                        # name, cores, extra nops: estimate
        ("one-short", 1, 0),            # (1, 4)
        ("two-short", 2, 0),            # (2, 8)
        ("one-long", 1, 3),             # (1, 7)
        ("two-short-b", 2, 0),          # (2, 8): ties two-short
        ("one-short-b", 1, 0),          # (1, 4): ties one-short
        ("four-short", 4, 0),           # (4, 16)
    ]
    scheduler = SweepScheduler(jobs=1, worker=_order_recording_worker,
                               point_timeout=30.0)
    scheduler.add("g", [
        RunSpec(name, small_config(cores),
                _trivial_workload(cores, name, extra_nops=nops))
        for name, cores, nops in declared])
    scheduler.run()
    order = (tmp_path / "order").read_text().split()
    assert order == ["four-short.t0", "two-short.t0", "two-short-b.t0",
                     "one-long.t0", "one-short.t0", "one-short-b.t0"]


def test_resilience_option_isolates_a_serial_sweep(tmp_path, monkeypatch):
    # A timeout can only be enforced on a point in its own process.
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    spec = RunSpec("only", small_config(1), _trivial_workload())
    [pid] = _worker_pids(tmp_path, [spec], jobs=1, point_timeout=30.0)
    assert pid != os.getpid()


# --------------------------------------------------------------- pickling

def test_system_result_pickles_and_validates():
    wl = standard_suite(2, 0.1)["producer-consumer"]
    results = execute_specs([RunSpec("p", SystemConfig(n_cores=2), wl)],
                            jobs=1)
    result = results["p"]
    clone = pickle.loads(pickle.dumps(result))
    wl.check(clone)
    assert clone.cycles == result.cycles
    assert clone.stats.snapshot() == result.stats.snapshot()
    assert clone.total_instructions() == result.total_instructions()


def _killing_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    """Simulates a hard worker crash (segfault-style death)."""
    os._exit(13)
