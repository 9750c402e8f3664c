"""The parallel sweep runner: determinism, dedup/caching, failure paths."""

from __future__ import annotations

import os
import pickle

import pytest

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
from repro.sim.config import SpeculationMode, SystemConfig
from repro.workloads.base import Workload
from repro.workloads.suite import standard_suite
from tests.conftest import small_config


def _trivial_workload(n_threads: int = 1, name: str = "trivial",
                      validate=None) -> Workload:
    programs = []
    for tid in range(n_threads):
        asm = Assembler(f"{name}.t{tid}")
        asm.li(1, 0x1_0000).li(2, tid + 1)
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
# point, no resilience option) and one worker process per point through
# ResilientPointRunner (everything else).

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


def test_parallel_sweep_runs_each_point_in_a_worker_process(tmp_path,
                                                            monkeypatch):
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    specs = [RunSpec(name, small_config(1), _trivial_workload(name=name))
             for name in ("a", "b", "c")]
    pids = _worker_pids(tmp_path, specs, jobs=2)
    assert os.getpid() not in pids
    assert len(set(pids)) == 3


def test_resilience_option_isolates_a_serial_sweep(tmp_path, monkeypatch):
    # A timeout can only be enforced on a point in its own process.
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    spec = RunSpec("only", small_config(1), _trivial_workload())
    [pid] = _worker_pids(tmp_path, [spec], jobs=1, point_timeout=30.0)
    assert pid != os.getpid()


def test_sharded_point_in_a_parallel_sweep_runs_inline():
    # Sweep workers are daemonic, so a sharded point inside one runs its
    # shards in the worker's own process, bit-identical to the forked
    # shard driver.
    from repro.workloads.protocols import gossip

    config, wl = small_config(4), gossip(4)
    scheduler = SweepScheduler(jobs=2)
    scheduler.add("g", [RunSpec("sharded", config, wl, shards=2),
                        RunSpec("plain", small_config(1),
                                _trivial_workload())])
    scheduler.run()
    sharded = scheduler.results_for("g")["sharded"]
    assert sharded.sharding["mode"] == "inline"
    forked, _seconds = simulate_point(config, wl.programs,
                                      wl.initial_memory, shards=2)
    assert forked.sharding["mode"] == "fork"
    assert result_fingerprint(sharded) == result_fingerprint(forked)


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
