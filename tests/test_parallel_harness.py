"""The parallel sweep runner: determinism, dedup/caching, failure paths."""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import pickle
import re
import time
from collections import defaultdict
from dataclasses import replace

import pytest

import repro.harness.experiments as experiments_module
import repro.harness.parallel as parallel_module
import repro.workloads.suite as suite_module
from repro.consistency import canonical_model
from repro.faults import PAUSE, FaultPlan, NodeFault, NodeFaultPlan
from repro.harness import Experiment, all_experiments
from repro.harness.experiments import (
    e1_plan,
    e2_build,
    e2_plan,
    e2_transparency,
    e3_plan,
    e6_plan,
)
from repro.harness.parallel import (
    DEFAULT_MAX_CYCLES,
    RunSpec,
    SweepError,
    SweepScheduler,
    execute_specs,
    point_fingerprint,
    result_fingerprint,
    simulate_point,
)
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Assembler, Program
from repro.sim.config import (
    ConsistencyModel,
    InterconnectConfig,
    SpeculationMode,
    SystemConfig,
    Topology,
)
from repro.system import System
from repro.workloads import producer_consumer
from repro.workloads.base import Workload
from repro.workloads.locks import lock_contention
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
    # only the resolved instruction streams and match.  The builds come
    # from the factory: two standard_suite calls share their programs.
    config = small_config(2)
    a, b = (lock_contention(2, increments=3, lock_kind="ticket")
            for _ in range(2))
    assert a.programs[0] is not b.programs[0]
    assert set(a.programs[0].labels) != set(b.programs[0].labels)
    assert point_fingerprint(config, a) == point_fingerprint(config, b)


def test_fingerprint_sensitive_to_config_and_workload():
    config = small_config(2)
    wl = _trivial_workload(2)
    spec_config = config.with_speculation(SpeculationMode.ON_DEMAND)
    assert point_fingerprint(config, wl) != point_fingerprint(spec_config, wl)
    other = _trivial_workload(2, name="other")
    assert point_fingerprint(config, wl) != point_fingerprint(config, other)


def test_replacing_a_programs_instructions_changes_its_points_keys():
    config = small_config(2)
    wl = _trivial_workload(2)
    before = point_fingerprint(config, wl)  # caches each program's digest
    program = wl.programs[1]
    object.__setattr__(program, "instructions",
                       (Instruction(Opcode.NOP),) + program.instructions)
    after = point_fingerprint(config, wl)
    assert after != before
    fresh = Workload(wl.name, [Program(p.name, p.instructions, dict(p.labels))
                               for p in wl.programs])
    assert point_fingerprint(config, fresh) == after


#: E1-E10 at test scale: each experiment's plan keyword arguments.
_TEST_SCALE = {
    "E1": dict(n_cores=2, scale=0.1),
    "E2": dict(n_cores=2, scale=0.1),
    "E3": dict(n_cores=2, scale=0.1),
    "E4": dict(n_cores=2),
    "E5": dict(n_cores=2),
    "E6": dict(n_cores=2, scale=0.1),
    "E7": dict(scale=0.1, core_counts=(2, 4)),
    "E8": dict(n_cores=2, scale=0.1),
    "E9": dict(core_counts=(2, 4), scale=0.1),
    "E10": {},
}


def _reference_key(spec: RunSpec) -> str:
    """The machine a spec builds, hashed the long way: the config with
    its canonical model, then every instruction's ``repr`` of every
    program, streamed, then memory and plans."""
    config = spec.config.with_consistency(
        canonical_model(spec.config.core.consistency))
    hasher = hashlib.sha256(repr(config).encode())
    hasher.update(f"|{spec.workload.name}".encode())
    for program in spec.workload.programs:
        hasher.update(b"|program|")
        for instr in program.instructions:
            hasher.update(f"{instr!r};".encode())
    hasher.update(repr(sorted(spec.workload.initial_memory.items())).encode())
    hasher.update(repr((spec.fault_plan, spec.node_plan)).encode())
    return hasher.hexdigest()


def _classes(keys: dict) -> set:
    """The partition of ``keys``' names into groups of equal keys."""
    groups = defaultdict(set)
    for name, key in keys.items():
        groups[key].add(name)
    return {frozenset(group) for group in groups.values()}


def test_points_dedup_into_the_classes_of_a_streamed_reference_hash():
    registry = all_experiments()
    specs = {f"{exp_id}/{spec.label}": spec
             for exp_id, kwargs in _TEST_SCALE.items()
             for spec in registry[exp_id].plan(**kwargs)}
    # E1 again, with programs that differ from E1's only in operands (loop
    # counts): a key that lost operands would merge the two.
    specs.update((f"E1-0.2/{spec.label}", spec)
                 for spec in e1_plan(n_cores=2, scale=0.2))
    classes = _classes({name: spec.fingerprint()
                        for name, spec in specs.items()})
    assert classes == _classes({name: _reference_key(spec)
                                for name, spec in specs.items()})
    by_name = {name: group for group in classes for name in group}
    # Twins and cross-experiment repeats share a point; SC does not.
    assert {"E1/locks-tas|tso", "E1/locks-tas|rmo", "E2/locks-tas|base-tso",
            "E2/locks-tas|base-rmo"} <= by_name["E1/locks-tas|tso"]
    assert "E1/locks-tas|sc" not in by_name["E1/locks-tas|tso"]
    assert "E1-0.2/locks-tas|tso" not in by_name["E1/locks-tas|tso"]
    assert len(classes) < len(specs)


def test_planning_builds_each_suite_once_and_digests_each_program_once(
        monkeypatch):
    """Counts, not timings: planning E1-E10 at default scale calls
    ``standard_suite`` 12 times for 4 distinct suites, and hashes each
    distinct ``Program`` object once over 153 point fingerprints."""
    suite_module._build_suite.cache_clear()
    calls, builds, digested = [], [], []

    def wrap(module, name, log):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            log.append(args + tuple(kwargs.values()))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    wrap(experiments_module, "standard_suite", calls)
    wrap(producer_consumer, "pingpong", builds)  # once per suite built
    wrap(parallel_module, "_program_digest", digested)
    registry = all_experiments()
    scheduler = SweepScheduler(jobs=2)
    programs = {}
    for index in range(1, 11):
        specs = registry[f"E{index}"].plan()
        scheduler.add(f"E{index}", specs)
        programs.update((id(program), program) for spec in specs
                        for program in spec.workload.programs)
    assert (scheduler.unique_points, scheduler.duplicate_hits) == (94, 59)
    assert len(calls) == 12 and len(set(calls)) == len(builds) == 4
    assert len(builds) <= suite_module.SUITE_MEMO_SIZE
    assert sorted(id(program) for (program,) in digested) == sorted(programs)


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
    # 7 workloads x 3 models; each rmo point builds its tso twin's machine.
    scheduler.add("E1", e1_plan(**kwargs))
    assert scheduler.unique_points == 14
    assert scheduler.duplicate_hits == 7
    # E2's three base-* points per workload are E1's machines exactly, and
    # each if-rmo point is its if-tso twin.
    scheduler.add("E2", e2_plan(**kwargs))           # 7 x 6
    assert scheduler.unique_points == 14 + 14
    assert scheduler.duplicate_hits == 7 + 21 + 7
    # E6's continuous probes coincide with E3's continuous half.
    scheduler.add("E3", e3_plan(**kwargs))           # 7 x 2, on-demand == if-tso
    scheduler.add("E6", e6_plan(**kwargs))           # 7, all cached in E3
    assert scheduler.unique_points == 35
    assert scheduler.duplicate_hits == 35 + 7 + 7
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


# ------------------------------------------------ one point per machine

_TSO, _RMO, _SC = (ConsistencyModel.TSO, ConsistencyModel.RMO,
                   ConsistencyModel.SC)


def _run_directly(config, workload):
    return System(config, workload.programs, workload.initial_memory).run(
        max_cycles=DEFAULT_MAX_CYCLES)


@pytest.mark.parametrize("plan", [e1_plan, e2_plan])
def test_every_tso_rmo_twin_simulates_alike(plan):
    """The oracle for keying points by machine: each RMO point of the
    paper grids, run through ``System`` with no scheduler, gives its
    TSO twin's fingerprint, events and cycles."""
    specs = [spec for spec in plan(n_cores=2, scale=0.1)
             if spec.config.core.consistency is _RMO]
    assert len(specs) == {e1_plan: 7, e2_plan: 14}[plan]
    for spec in specs:
        rmo = _run_directly(spec.config, spec.workload)
        tso = _run_directly(spec.config.with_consistency(_TSO), spec.workload)
        assert (result_fingerprint(rmo), rmo.events, rmo.cycles) == \
            (result_fingerprint(tso), tso.events, tso.cycles), spec.label


@pytest.mark.parametrize("jobs", [1, 2])
def test_tso_and_rmo_share_a_point_and_sc_does_not(jobs):
    seen = []
    wl = _trivial_workload(
        2, validate=lambda result: seen.append(result.config.core.consistency))
    tso, rmo, sc = (small_config(2).with_consistency(model)
                    for model in (_TSO, _RMO, _SC))
    assert point_fingerprint(tso, wl) == point_fingerprint(rmo, wl)
    assert point_fingerprint(sc, wl) != point_fingerprint(tso, wl)
    scheduler = SweepScheduler(jobs=jobs)
    scheduler.add("A", [RunSpec("tso", tso, wl), RunSpec("sc", sc, wl)])
    scheduler.add("B", [RunSpec("rmo", rmo, wl), RunSpec("rmo-2", rmo, wl)])
    report = scheduler.run()
    assert (report.unique_points, report.duplicate_hits) == (2, 2)
    first, second = scheduler.results_for("A"), scheduler.results_for("B")
    # Each label's result carries its own config, and is checked with it.
    assert first["tso"].config == tso
    assert second["rmo"].config == rmo
    assert seen == [_TSO, _SC, _RMO, _RMO]
    assert result_fingerprint(second["rmo"]) == \
        result_fingerprint(first["tso"])
    # Only a differing config is copied: equal configs share one object.
    assert second["rmo"] is second["rmo-2"]
    assert second["rmo"] is not first["tso"]
    assert scheduler.results_for("B")["rmo"] is second["rmo"]


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


def test_a_rejected_grid_registers_none_of_its_specs():
    scheduler = SweepScheduler(jobs=1)
    wl = _trivial_workload(2)
    first = RunSpec("a", small_config(2), wl)
    repeat = RunSpec("a", small_config(2).with_speculation(
        SpeculationMode.ON_DEMAND), wl)
    wrong_cores = RunSpec("b", small_config(4), wl)
    for bad in (repeat, wrong_cores):
        with pytest.raises(ValueError):
            scheduler.add("X", [first, bad])
    assert (scheduler.unique_points, scheduler.duplicate_hits) == (0, 0)
    with pytest.raises(SweepError, match="no experiment 'X'"):
        scheduler.results_for("X")
    scheduler.add("Y", [RunSpec("y", small_config(2), wl)])
    with pytest.raises(ValueError, match="duplicate label"):
        scheduler.add("Y", [RunSpec("z", small_config(1),
                                    _trivial_workload()),
                            RunSpec("y", small_config(2), wl)])
    assert scheduler.run().unique_points == 1
    assert list(scheduler.results_for("Y")) == ["y"]


def test_results_for_an_unknown_experiment_names_the_added_ones():
    scheduler = SweepScheduler(jobs=1)
    with pytest.raises(SweepError,
                       match=r"no experiment 'nope' was added; added: none"):
        scheduler.results_for("nope")
    wl = _trivial_workload(2)
    scheduler.add("Y", [RunSpec("y", small_config(2), wl)])
    with pytest.raises(ValueError):
        scheduler.add("X", [RunSpec("x", small_config(4), wl)])
    scheduler.run()
    for exp_id in ("nope", "X"):
        with pytest.raises(SweepError,
                           match=rf"no experiment '{exp_id}' was added; "
                                 r"added: \['Y'\]"):
            scheduler.results_for(exp_id)
    assert list(scheduler.results_for("Y")) == ["y"]


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


def _raising_worker(config, programs, initial_memory, fault_plan=None,
                    node_plan=None):
    """Raises on the workload named "trivial" and runs any other."""
    if programs[0].name.startswith("trivial."):
        raise ValueError("point broke")
    return simulate_point(config, programs, initial_memory, fault_plan)


@pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "in-worker"])
def test_failing_point_names_every_label_that_shares_it(jobs):
    wl = _trivial_workload()
    tso = RunSpec("w|tso", small_config(1).with_consistency(_TSO), wl)
    rmo = RunSpec("w|if-rmo", small_config(1).with_consistency(_RMO), wl)
    # A second point, so that jobs=2 runs both in worker processes.
    other = RunSpec("other", small_config(1), _trivial_workload(name="other"))
    scheduler = SweepScheduler(jobs=jobs, worker=_raising_worker)
    scheduler.add("E1", [tso, other])
    scheduler.add("E2", [rmo])
    with pytest.raises(SweepError) as info:
        scheduler.run()
    message = str(info.value)
    assert "point broke" in message
    for name, spec in (("E1/'w|tso'", tso), ("E2/'w|if-rmo'", rmo)):
        assert f"{name} (workload 'trivial', {spec.config.describe()})" \
            in message


def _sleeping_worker(config, programs, initial_memory, fault_plan=None,
                     node_plan=None):
    started = time.perf_counter()
    time.sleep(0.2)
    return programs[0].name, time.perf_counter() - started


def test_serial_equivalent_counts_cpu_seconds_not_descheduled_time():
    names = ("a", "b", "c", "d")
    scheduler = SweepScheduler(jobs=2, worker=_sleeping_worker)
    scheduler.add("g", [RunSpec(name, small_config(1),
                                _trivial_workload(name=name), check=False)
                        for name in names])
    report = scheduler.run()
    assert report.serial_seconds >= 0.2 * len(names)    # the wall sum
    shown = re.search(r"serial-equivalent ([0-9.]+)s", report.render())
    assert float(shown.group(1)) < 0.1 * len(names)
    assert report.serial_cpu_seconds < 0.1 * len(names)


def test_serial_sweep_freezes_the_collector_until_it_ends():
    assert gc.get_freeze_count() == 0
    during = []

    def worker(*args):
        during.append(gc.get_freeze_count())
        raise ValueError("point broke")

    scheduler = SweepScheduler(jobs=1, worker=worker)
    scheduler.add("g", [RunSpec("p", small_config(1), _trivial_workload())])
    with pytest.raises(SweepError, match="point broke"):
        scheduler.run()
    assert during and during[0] > 0
    assert gc.get_freeze_count() == 0


def test_dead_worker_surfaces_clear_error_instead_of_hanging():
    scheduler = SweepScheduler(jobs=2, worker=_killing_worker)
    scheduler.add("g", [
        RunSpec("a", small_config(1), _trivial_workload()),
        RunSpec("b", small_config(1), _trivial_workload(name="b")),
    ])
    with pytest.raises(SweepError, match=r"worker process died \(exit code "
                       r"13\); rerun with --jobs 1 to debug in-process"):
        scheduler.run()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [0, -1, 2.0, "2"],
                         ids=["zero", "negative", "float", "string"])
def test_jobs_that_is_not_an_integer_of_at_least_one_is_rejected(jobs):
    message = rf"jobs must be an integer >= 1, got {re.escape(repr(jobs))}$"
    with pytest.raises(ValueError, match=message):
        SweepScheduler(jobs=jobs)
    with pytest.raises(ValueError, match=message):
        execute_specs([RunSpec("p", small_config(1), _trivial_workload())],
                      jobs=jobs)


def test_jobs_none_is_refused_and_the_default_is_one_worker(monkeypatch):
    # ``None`` means "REPRO_JOBS, else 1" only where an experiment is
    # called; a sweep takes a count, and by default runs in-process.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert SweepScheduler().jobs == 1
    message = r"jobs must be an integer >= 1, got None$"
    with pytest.raises(ValueError, match=message):
        SweepScheduler(jobs=None)
    with pytest.raises(ValueError, match=message):
        execute_specs([RunSpec("p", small_config(1), _trivial_workload())],
                      jobs=None)


@pytest.fixture
def one_point_experiment(monkeypatch):
    """A one-point experiment, and the ``jobs`` of each of its runs."""
    seen_jobs = []

    def recording_execute_specs(specs, jobs=1):
        seen_jobs.append(jobs)
        return execute_specs(specs, jobs=jobs)

    def one_point_plan():
        return [RunSpec("p", small_config(1), _trivial_workload())]

    def one_point_build(results):
        return results["p"]

    monkeypatch.setattr(experiments_module, "execute_specs",
                        recording_execute_specs)
    return Experiment("T", one_point_plan, one_point_build), seen_jobs


@pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
def test_bad_repro_jobs_is_rejected_naming_the_variable(
        monkeypatch, one_point_experiment, value):
    experiment, seen_jobs = one_point_experiment
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.raises(ValueError,
                       match=rf"REPRO_JOBS must be an integer >= 1, "
                             rf"got {re.escape(repr(value))}$"):
        experiment()
    assert seen_jobs == []                      # nothing was simulated


@pytest.mark.parametrize("value,jobs", [("", 1), ("2", 2)],
                         ids=["empty", "two"])
def test_repro_jobs_sets_an_experiments_workers(
        monkeypatch, one_point_experiment, value, jobs):
    experiment, seen_jobs = one_point_experiment
    monkeypatch.setenv("REPRO_JOBS", value)
    assert experiment().cycles > 0
    assert experiment(jobs=1).cycles > 0        # an argument wins
    assert seen_jobs == [jobs, 1]


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
# point) and up to ``jobs`` worker processes that each run point after
# point (everything else).

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
    # run() sorts the points once, before either path, so the
    # in-process path runs them in the order workers are handed them:
    # most cores first, then most static instructions, equal estimates
    # as declared.
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    declared = [                        # name, cores, extra nops: estimate
        ("one-short", 1, 0),            # (1, 4)
        ("two-short", 2, 0),            # (2, 8)
        ("one-long", 1, 3),             # (1, 7)
        ("two-short-b", 2, 0),          # (2, 8): ties two-short
        ("one-short-b", 1, 0),          # (1, 4): ties one-short
        ("four-short", 4, 0),           # (4, 16)
    ]
    scheduler = SweepScheduler(jobs=1, worker=_order_recording_worker)
    scheduler.add("g", [
        RunSpec(name, small_config(cores),
                _trivial_workload(cores, name, extra_nops=nops))
        for name, cores, nops in declared])
    scheduler.run()
    order = (tmp_path / "order").read_text().split()
    assert order == ["four-short.t0", "two-short.t0", "two-short-b.t0",
                     "one-long.t0", "one-short.t0", "one-short-b.t0"]


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
