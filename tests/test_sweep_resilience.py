"""Resilient sweep execution: timeouts, retries, exclusion, store resume.

The acceptance bar: a sweep interrupted mid-run and resumed from its
result store must reuse the already-completed points and still
produce tables bit-identical to an uninterrupted run; hung or crashing
points must be retried with backoff and then excluded instead of
sinking the grid; deterministic failures must raise immediately, naming
the offending (config, workload) point.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.faults import FaultPlan
from repro.harness.parallel import (
    ResilientPointRunner,
    RunSpec,
    SweepError,
    SweepScheduler,
    point_fingerprint,
    result_fingerprint,
    simulate_point,
)
from repro.harness.store import STORE_FORMAT_VERSION, ResultStore
from repro.isa.program import Assembler
from repro.workloads.base import Workload
from tests.conftest import small_config

_CRASH_MARKER_ENV = "REPRO_TEST_CRASH_MARKER"


def _workload(name: str = "w", value: int = 1) -> Workload:
    asm = Assembler(f"{name}.t0")
    asm.li(1, 0x1_0000).li(2, value)
    asm.store(2, base=1)
    asm.halt()
    return Workload(name, [asm.build()], {})


def _grid(n: int = 3):
    return [RunSpec(f"p{i}", small_config(1), _workload(f"w{i}", i + 1))
            for i in range(n)]


def _hanging_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    time.sleep(60)


def _crash_once_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    """Dies hard on the first attempt, succeeds on the second (the marker
    file persists across the retry's fresh process)."""
    marker = os.environ[_CRASH_MARKER_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return simulate_point(config, programs, initial_memory, fault_plan)


def _broken_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    raise ValueError("intentionally broken point")


def _fails_on_w1_worker(config, programs, initial_memory, fault_plan=None,
                        node_plan=None):
    if programs[0].name == "w1.t0":
        raise ValueError("intentionally broken point")
    return simulate_point(config, programs, initial_memory, fault_plan)


def _hangs_on_w1_worker(config, programs, initial_memory, fault_plan=None,
                        node_plan=None):
    if programs[0].name == "w1.t0":
        time.sleep(60)
    return simulate_point(config, programs, initial_memory, fault_plan)


def _records(store_dir: str):
    return glob.glob(os.path.join(store_dir, "*", "*", "*.res"))


def _record_path(store_dir: str, spec: RunSpec) -> str:
    return ResultStore(store_dir)._path(spec.fingerprint())


# ------------------------------------------------------------- fingerprints

def test_runspec_fingerprint_matches_legacy_without_plan():
    config, wl = small_config(1), _workload()
    assert RunSpec("p", config, wl).fingerprint() == \
        point_fingerprint(config, wl)


def test_fault_plan_is_part_of_point_identity():
    config, wl = small_config(1), _workload()
    plan = FaultPlan(drop_first_n=1)
    spec = RunSpec("p", config, wl, fault_plan=plan)
    assert spec.fingerprint() == point_fingerprint(config, wl, plan)
    assert spec.fingerprint() != point_fingerprint(config, wl)
    assert point_fingerprint(config, wl, FaultPlan(drop_first_n=2)) != \
        spec.fingerprint()


def test_fault_injected_point_runs_through_the_scheduler():
    scheduler = SweepScheduler(jobs=1)
    scheduler.add("g", [RunSpec("p", small_config(1), _workload(),
                                fault_plan=FaultPlan(seed=4, dup_prob=0.5))])
    scheduler.run()
    result = scheduler.results_for("g")["p"]
    assert result.stats.snapshot()["faults.duplicated"] >= 0
    assert result.read_word(0x1_0000) == 1


# ----------------------------------------------------------- store / resume

def test_interrupted_sweep_resumes_from_the_store(tmp_path):
    store = str(tmp_path / "store")
    grid = _grid(3)

    # Reference: one uninterrupted run, no store involved.
    reference = SweepScheduler(jobs=1)
    reference.add("g", _grid(3))
    reference.run()
    want = {label: result_fingerprint(result)
            for label, result in reference.results_for("g").items()}

    # "Killed" sweep: only part of the grid completed before the kill.
    first = SweepScheduler(jobs=1, store_dir=store)
    first.add("g", grid[:2])
    first.run()
    assert len(_records(store)) == 2

    # Resume in a fresh scheduler (fresh process in real life): the two
    # completed points come from disk, only the third is simulated.
    resumed = SweepScheduler(jobs=1, store_dir=store)
    resumed.add("g", _grid(3))
    report = resumed.run()
    assert report.store_hits == 2
    assert report.unique_points == 1            # only p2 actually simulated
    got = {label: result_fingerprint(result)
           for label, result in resumed.results_for("g").items()}
    assert got == want


def test_truncated_record_is_ignored_and_resimulated(tmp_path):
    store = str(tmp_path / "store")
    first = SweepScheduler(jobs=1, store_dir=store)
    first.add("g", _grid(2))
    first.run()
    victim = sorted(_records(store))[0]
    with open(victim, "wb") as fh:
        fh.write(b"\x80truncated-by-a-kill")

    resumed = SweepScheduler(jobs=1, store_dir=store)
    resumed.add("g", _grid(2))
    report = resumed.run()
    assert report.store_hits == 1               # the intact one
    resumed.results_for("g")                    # the other re-simulated fine

    reference = SweepScheduler(jobs=1)
    reference.add("g", _grid(2))
    reference.run()
    for label, result in reference.results_for("g").items():
        assert result_fingerprint(resumed.results_for("g")[label]) == \
            result_fingerprint(result)


def test_repeated_parallel_grid_is_served_from_the_store(tmp_path):
    store = str(tmp_path / "store")
    first = SweepScheduler(jobs=2, store_dir=store)
    first.add("g", _grid(3))
    report = first.run()
    assert (report.unique_points, report.store_hits) == (3, 0)
    want = {label: result_fingerprint(result)
            for label, result in first.results_for("g").items()}

    again = SweepScheduler(jobs=2, store_dir=store)
    again.add("g", _grid(3))
    report = again.run()
    assert (report.unique_points, report.store_hits) == (0, 3)
    assert ", 3 from store" in report.render()
    got = {label: result_fingerprint(result)
           for label, result in again.results_for("g").items()}
    assert got == want


def test_duplicate_points_are_simulated_and_stored_once(tmp_path):
    store = str(tmp_path / "store")
    spec = _grid(1)[0]
    twin = RunSpec("twin", spec.config, spec.workload)
    scheduler = SweepScheduler(jobs=1, store_dir=store)
    scheduler.add("g", [spec, twin])
    report = scheduler.run()
    assert (report.unique_points, report.duplicate_hits) == (1, 1)
    assert len(_records(store)) == 1
    results = scheduler.results_for("g")
    assert results["p0"] is results["twin"]


def test_failed_sweep_keeps_completed_points_in_the_store(tmp_path):
    store = str(tmp_path / "store")
    failing = SweepScheduler(jobs=1, worker=_fails_on_w1_worker,
                             store_dir=store)
    failing.add("g", _grid(3))
    with pytest.raises(SweepError, match="p1"):
        failing.run()
    assert len(_records(store)) == 1            # p0 finished before p1

    fixed = SweepScheduler(jobs=1, store_dir=store)
    fixed.add("g", _grid(3))
    report = fixed.run()
    assert (report.unique_points, report.store_hits) == (2, 1)
    assert fixed.results_for("g")["p2"].read_word(0x1_0000) == 3


def test_excluded_point_is_not_written_to_the_store(tmp_path):
    store = str(tmp_path / "store")
    scheduler = SweepScheduler(jobs=1, worker=_hangs_on_w1_worker,
                               point_timeout=1.0, retries=0,
                               term_grace=0.5, store_dir=store)
    scheduler.add("g", _grid(3))
    report = scheduler.run()
    assert list(report.excluded) == ["p1"]
    assert sorted(_records(store)) == sorted(
        _record_path(store, spec) for spec in _grid(3) if spec.label != "p1")

    # A later sweep over the same store retries only the excluded point.
    retry = SweepScheduler(jobs=1, store_dir=store)
    retry.add("g", _grid(3))
    report = retry.run()
    assert (report.unique_points, report.store_hits) == (1, 2)
    assert retry.results_for("g")["p1"].read_word(0x1_0000) == 2


def test_chaos_point_round_trips_through_the_store(tmp_path):
    # A link-fault and node-fault point restores with its crashed core
    # and its fault and recovery counters, as the live run produced them.
    from repro.faults import CRASH, NodeFault, NodeFaultPlan
    from repro.sim.config import SystemConfig
    from repro.workloads.protocols import gossip

    def chaos():
        return RunSpec("chaos", SystemConfig(n_cores=4), gossip(4),
                       check=False,
                       fault_plan=FaultPlan(seed=2, drop_prob=0.05),
                       node_plan=NodeFaultPlan(
                           faults=(NodeFault(1, CRASH, 300),)))

    spec = chaos()
    direct, _seconds = simulate_point(spec.config, spec.workload.programs,
                                      spec.workload.initial_memory,
                                      spec.fault_plan, spec.node_plan)
    store = str(tmp_path / "store")
    first = SweepScheduler(jobs=1, store_dir=store)
    first.add("g", [chaos()])
    first.run()

    restored = SweepScheduler(jobs=1, store_dir=store)
    restored.add("g", [chaos()])
    assert restored.run().store_hits == 1
    result = restored.results_for("g")["chaos"]
    assert result_fingerprint(result) == result_fingerprint(direct)
    assert result.crashed_core_ids() == [1]
    counters = result.stats.snapshot()
    assert counters["nodefaults.crashes"] == 1
    assert counters["faults.dropped"] >= 1
    assert counters == direct.stats.snapshot()


# -------------------------------------------------- timeouts and exclusion

def test_hung_point_times_out_retries_then_lands_on_skip_list():
    scheduler = SweepScheduler(jobs=1, worker=_hanging_worker,
                               point_timeout=0.2, retries=1,
                               retry_backoff=0.05)
    scheduler.add("g", [RunSpec("stuck", small_config(1), _workload())])
    report = scheduler.run()                    # does not raise, does not hang
    assert report.retries == 1
    assert list(report.excluded) == ["stuck"]
    assert "timed out" in report.excluded["stuck"]
    assert "gave up after 2 attempt(s)" in report.excluded["stuck"]
    with pytest.raises(SweepError, match="excluded by the resilience policy"):
        scheduler.results_for("g")


def test_excluded_points_are_not_reattempted_on_rerun():
    scheduler = SweepScheduler(jobs=1, worker=_hanging_worker,
                               point_timeout=0.2, retries=0,
                               retry_backoff=0.05)
    scheduler.add("g", [RunSpec("stuck", small_config(1), _workload())])
    scheduler.run()
    assert len(scheduler.excluded) == 1
    started = time.monotonic()
    report = scheduler.run()                    # skip list, not another 0.2s
    assert time.monotonic() - started < 0.15
    assert report.retries == 0


def test_healthy_grid_excludes_nothing_under_resilience_policy():
    resilient = SweepScheduler(jobs=1, point_timeout=30.0, retries=2)
    resilient.add("g", _grid(3))
    report = resilient.run()
    assert not report.excluded and report.retries == 0

    plain = SweepScheduler(jobs=1)
    plain.add("g", _grid(3))
    plain.run()
    for label, result in plain.results_for("g").items():
        assert result_fingerprint(resilient.results_for("g")[label]) == \
            result_fingerprint(result)


# ------------------------------------------------------- crashes and errors

def test_crashed_point_is_retried_and_recovers(tmp_path, monkeypatch):
    marker = str(tmp_path / "crashed-once")
    monkeypatch.setenv(_CRASH_MARKER_ENV, marker)
    scheduler = SweepScheduler(jobs=1, worker=_crash_once_worker,
                               retries=2, retry_backoff=0.05)
    scheduler.add("g", [RunSpec("flaky", small_config(1), _workload())])
    report = scheduler.run()
    assert report.retries == 1
    assert not report.excluded
    assert scheduler.results_for("g")["flaky"].read_word(0x1_0000) == 1


def test_deterministic_error_raises_immediately_naming_the_point():
    scheduler = SweepScheduler(jobs=1, worker=_broken_worker,
                               point_timeout=30.0, retries=5)
    scheduler.add("g", [RunSpec("bad-point", small_config(1),
                                _workload("bad-workload"))])
    started = time.monotonic()
    with pytest.raises(SweepError) as info:
        scheduler.run()
    assert time.monotonic() - started < 5       # no 5-retry backoff dance
    message = str(info.value)
    assert "bad-point" in message
    assert "bad-workload" in message
    assert "intentionally broken point" in message
    assert scheduler._retries_this_run == 0


def test_resilience_option_validation():
    with pytest.raises(ValueError, match="point_timeout"):
        SweepScheduler(point_timeout=0)
    with pytest.raises(ValueError, match="retries"):
        SweepScheduler(retries=-1)
    with pytest.raises(ValueError, match="term_grace"):
        SweepScheduler(term_grace=0)


# ------------------------------------------------------- worker lifetime
#
# Workers live for one run() call and run point after point.  A worker
# that dies or times out costs only its in-flight point; one whose point
# raised is retired; none outlives run(), whether it returns or raises.

_MID_POINT_ENV = "REPRO_TEST_MID_POINT_MARKER"


def _crash_once_on_w1_worker(config, programs, initial_memory,
                             fault_plan=None, node_plan=None):
    """Logs ``program pid`` per attempt; the first attempt at w1 dies
    hard."""
    log = os.environ[_CRASH_MARKER_ENV]
    name = programs[0].name
    with open(log, "a") as fh:
        fh.write(f"{name} {os.getpid()}\n")
    with open(log) as fh:
        first_attempt = fh.read().count(f"{name} ") == 1
    if name == "w1.t0" and first_attempt:
        os._exit(1)
    return simulate_point(config, programs, initial_memory, fault_plan)


def test_crashed_point_reruns_on_a_new_worker_and_others_are_unchanged(
        tmp_path, monkeypatch):
    log = tmp_path / "attempts"
    monkeypatch.setenv(_CRASH_MARKER_ENV, str(log))
    scheduler = SweepScheduler(jobs=2, worker=_crash_once_on_w1_worker,
                               retries=1, retry_backoff=0.05)
    scheduler.add("g", _grid(5))
    report = scheduler.run()
    assert report.retries == 1 and not report.excluded
    attempts = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for name, _ in attempts) == \
        ["w0.t0", "w1.t0", "w1.t0", "w2.t0", "w3.t0", "w4.t0"]
    crashed, retried = [int(pid) for name, pid in attempts
                        if name == "w1.t0"]
    assert retried != crashed

    in_process = SweepScheduler(jobs=1)
    in_process.add("g", _grid(5))
    in_process.run()
    for label, result in in_process.results_for("g").items():
        assert result_fingerprint(scheduler.results_for("g")[label]) == \
            result_fingerprint(result)


def _pid_worker_failing_on_w0(config, programs, initial_memory,
                              fault_plan=None, node_plan=None):
    """Answers with its own pid in place of a result; w0 raises, naming
    the pid."""
    if programs[0].name == "w0.t0":
        raise ValueError(os.getpid())
    return os.getpid(), 0.0


def test_worker_whose_point_raised_is_not_reused():
    runner = ResilientPointRunner(worker=_pid_worker_failing_on_w0, jobs=1)
    pids, errors = {}, {}
    runner.run([(spec.label, spec) for spec in _grid(3)],
               on_result=lambda key, spec, pid, s: pids.__setitem__(key, pid),
               on_error=lambda key, spec, message: errors.__setitem__(
                   key, message),
               on_exclude=lambda key, spec, reason: pytest.fail(reason))
    assert list(errors) == ["p0"]
    raised_on = int(errors["p0"].removeprefix("ValueError: "))
    assert pids["p1"] != raised_on
    assert pids["p2"] == pids["p1"]             # a worker that answered "ok"
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_clean_parallel_sweep():
    scheduler = SweepScheduler(jobs=2)
    scheduler.add("g", _grid(4))
    scheduler.run()
    assert len(scheduler.results_for("g")) == 4
    assert multiprocessing.active_children() == []


def _fails_on_w0_while_w1_runs_worker(config, programs, initial_memory,
                                      fault_plan=None, node_plan=None):
    """w1 marks that it has started, then hangs; w0 raises once w1 is
    mid-point."""
    marker = os.environ[_MID_POINT_ENV]
    if programs[0].name == "w1.t0":
        with open(marker, "w") as fh:
            fh.write("started")
        time.sleep(60)
    if programs[0].name == "w0.t0":
        give_up = time.monotonic() + 10
        while not os.path.exists(marker) and time.monotonic() < give_up:
            time.sleep(0.01)
        raise ValueError("intentionally broken point")
    return simulate_point(config, programs, initial_memory, fault_plan)


def test_no_worker_outlives_a_sweep_that_fails_mid_point(tmp_path,
                                                         monkeypatch):
    marker = tmp_path / "w1-started"
    monkeypatch.setenv(_MID_POINT_ENV, str(marker))
    scheduler = SweepScheduler(jobs=2,
                               worker=_fails_on_w0_while_w1_runs_worker)
    scheduler.add("g", _grid(3))
    started = time.monotonic()
    with pytest.raises(SweepError, match="intentionally broken point"):
        scheduler.run()
    assert marker.exists()                      # w1 was mid-point
    assert time.monotonic() - started < 30      # w1 was not waited for
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_timeout_exclusion():
    scheduler = SweepScheduler(jobs=2, worker=_hangs_on_w1_worker,
                               point_timeout=1.0, retries=0)
    scheduler.add("g", _grid(3))
    report = scheduler.run()
    assert list(report.excluded) == ["p1"]
    assert multiprocessing.active_children() == []


_KILLED_SWEEP = textwrap.dedent("""
    import os, sys, time
    from repro.harness.parallel import RunSpec, SweepScheduler
    from repro.isa.program import Assembler
    from repro.sim.config import SystemConfig
    from repro.workloads.base import Workload

    def worker(config, programs, initial_memory, fault_plan=None,
               node_plan=None):
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        time.sleep(0.1)
        return None, 0.1

    def spec(i):
        asm = Assembler(f"w{i}.t0")
        asm.li(1, i).halt()
        return RunSpec(f"p{i}", SystemConfig(n_cores=1),
                       Workload(f"w{i}", [asm.build()], {}))

    scheduler = SweepScheduler(jobs=2, worker=worker)
    scheduler.add("g", [spec(i) for i in range(100)])
    scheduler.run()
""")


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (not gone, not a zombie)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:  # gone since the kill, or no /proc here
        return not os.path.isdir("/proc")
    return state != "Z"


def test_workers_exit_when_their_sweep_process_is_killed(tmp_path):
    # The parent's end of each pipe must reach its worker as EOF once
    # the parent is gone, or a killed sweep leaves workers waiting for
    # their next point forever.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    sweep = subprocess.Popen(
        [sys.executable, "-c", _KILLED_SWEEP, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
    try:
        give_up = time.monotonic() + 30
        while len(os.listdir(tmp_path)) < 2 and time.monotonic() < give_up:
            time.sleep(0.02)
    finally:
        sweep.kill()
        sweep.wait()
    workers = [int(name) for name in os.listdir(tmp_path)]
    assert len(workers) == 2
    give_up = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < give_up:
        time.sleep(0.02)
    assert not any(map(_running, workers))


# --------------------------------------------------- regression: timeouts
#
# Each point's kill deadline must be budgeted from *its own* launch.  The
# pre-fix code computed it from a clock captured before the launch loop,
# so sibling ``proc.start()`` cost was charged against a point's
# point_timeout and late-launched points were killed early.

class _SlowLaunchRunner(ResilientPointRunner):
    """Runner whose every launch takes ~1s (expensive-fork stand-in)."""

    LAUNCH_DELAY = 1.0

    def _launch(self, args):
        time.sleep(self.LAUNCH_DELAY)
        return super()._launch(args)


def _slow_start_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    time.sleep(0.35)
    return simulate_point(config, programs, initial_memory, fault_plan)


def test_point_timeout_excludes_sibling_launch_cost():
    # Both launches take ~1s; the worker itself needs ~0.35s against a
    # 1.2s budget.  A fresh per-launch clock gives every point its full
    # budget; the stale pre-loop clock would have killed both (their
    # deadlines expire during/just after their own slow launch).
    runner = _SlowLaunchRunner(worker=_slow_start_worker, jobs=2,
                               point_timeout=1.2, retries=0)
    done, excluded = {}, {}
    runner.run([(spec.fingerprint(), spec) for spec in _grid(2)],
               on_result=lambda fp, spec, result, s: done.__setitem__(
                   fp, result),
               on_error=lambda fp, spec, msg: pytest.fail(msg),
               on_exclude=lambda fp, spec, reason: excluded.__setitem__(
                   spec.label, reason))
    assert excluded == {}
    assert len(done) == 2


# ----------------------------------------- regression: SIGTERM-immune kill
#
# The pre-fix timeout path did proc.terminate() then an *unbounded*
# proc.join(): a worker wedged ignoring SIGTERM hung the sweep forever.
# The fix joins with term_grace, then escalates to SIGKILL.

def _sigterm_immune_worker(config, programs, initial_memory,
                           fault_plan=None, node_plan=None):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60)


def test_sigterm_immune_worker_is_kill_escalated():
    scheduler = SweepScheduler(jobs=1, worker=_sigterm_immune_worker,
                               point_timeout=0.3, retries=0,
                               term_grace=0.4)
    scheduler.add("g", [RunSpec("wedged", small_config(1), _workload())])
    started = time.monotonic()
    report = scheduler.run()                    # pre-fix: hangs forever
    assert time.monotonic() - started < 30
    assert list(report.excluded) == ["wedged"]
    assert "timed out" in report.excluded["wedged"]


# ------------------------------------------- regression: report isolation
#
# SweepReport.excluded was built from the scheduler's *cumulative*
# exclusion list, so a second run's report re-reported prior runs'
# exclusions as its own.

def test_report_excluded_is_scoped_to_its_own_run():
    scheduler = SweepScheduler(jobs=1, worker=_hanging_worker,
                               point_timeout=0.2, retries=0)
    scheduler.add("g", [RunSpec("first-stuck", small_config(1),
                                _workload("w-first"))])
    first = scheduler.run()
    assert list(first.excluded) == ["first-stuck"]

    scheduler.add("g", [RunSpec("second-stuck", small_config(1),
                                _workload("w-second"))])
    second = scheduler.run()
    assert list(second.excluded) == ["second-stuck"]   # pre-fix: both
    assert len(scheduler.excluded) == 2                # cumulative skip list

    third = scheduler.run()                            # nothing new hangs
    assert third.excluded == {}


# ------------------------------------------- regression: restore validation
#
# Restores used to unpickle anything in the directory with no integrity
# or version check.  Every restore now goes through the store's
# versioned record format: a foreign, tampered, stale-version, or
# legacy raw-pickle file is rejected and the point re-simulated.

def test_foreign_record_is_rejected_and_resimulated(tmp_path):
    store = str(tmp_path / "store")
    first = SweepScheduler(jobs=1, store_dir=store)
    first.add("g", _grid(2))
    first.run()

    p0, p1 = _grid(2)
    # Pretend an operator synced p0's record onto p1's key.
    shutil.copyfile(_record_path(store, p0), _record_path(store, p1))

    resumed = SweepScheduler(jobs=1, store_dir=store)
    resumed.add("g", _grid(2))
    report = resumed.run()
    assert report.store_hits == 1               # only the genuine one
    # pre-fix: p1 silently resumed from p0's result (value 1, not 2)
    assert resumed.results_for("g")["p1"].read_word(0x1_0000) == 2


def test_stale_format_version_record_is_rejected(tmp_path):
    store = str(tmp_path / "store")
    first = SweepScheduler(jobs=1, store_dir=store)
    first.add("g", _grid(1))
    first.run()

    path = _record_path(store, _grid(1)[0])
    with open(path, "rb") as fh:
        header, payload = fh.read().split(b"\n", 1)
    parts = header.split(b"\x00")
    parts[1] = str(STORE_FORMAT_VERSION + 1).encode()
    with open(path, "wb") as fh:
        fh.write(b"\x00".join(parts) + b"\n" + payload)

    resumed = SweepScheduler(jobs=1, store_dir=store)
    resumed.add("g", _grid(1))
    report = resumed.run()
    assert report.store_hits == 0
    assert report.unique_points == 1            # re-simulated
    resumed.results_for("g")


def test_legacy_raw_pickle_record_is_rejected(tmp_path):
    store = str(tmp_path / "store")
    reference = SweepScheduler(jobs=1)
    reference.add("g", _grid(1))
    reference.run()
    result = reference.results_for("g")["p0"]

    # A record written by the pre-record-format code: bare pickle.
    path = _record_path(store, _grid(1)[0])
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        pickle.dump(result, fh)

    resumed = SweepScheduler(jobs=1, store_dir=store)
    resumed.add("g", _grid(1))
    report = resumed.run()
    assert report.store_hits == 0               # no blind unpickling
    assert result_fingerprint(resumed.results_for("g")["p0"]) == \
        result_fingerprint(result)


def test_tampered_record_fingerprint_fails_integrity(tmp_path):
    store = str(tmp_path / "store")
    first = SweepScheduler(jobs=1, store_dir=store)
    first.add("g", _grid(1))
    first.run()

    path = _record_path(store, _grid(1)[0])
    with open(path, "rb") as fh:
        header, payload = fh.read().split(b"\n", 1)
    parts = header.split(b"\x00")
    parts[3] = b"0" * 64                        # lie about the result
    with open(path, "wb") as fh:
        fh.write(b"\x00".join(parts) + b"\n" + payload)

    resumed = SweepScheduler(jobs=1, store_dir=store)
    resumed.add("g", _grid(1))
    assert resumed.run().store_hits == 0
    resumed.results_for("g")
