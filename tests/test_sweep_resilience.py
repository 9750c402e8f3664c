"""Sweep failures, worker lifetime and resume from the result store.

The acceptance bar: a sweep interrupted mid-run and resumed from its
result store must reuse the already-completed points and still
produce tables bit-identical to an uninterrupted run; a failing point
must fail the sweep at once, naming the offending (config, workload)
point, and leave no worker process behind.
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
import repro.harness.parallel as parallel_module
from repro.harness.parallel import (
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

def _workload(name: str = "w", value: int = 1) -> Workload:
    asm = Assembler(f"{name}.t0")
    asm.li(1, 0x1_0000).li(2, value)
    asm.store(2, base=1)
    asm.halt()
    return Workload(name, [asm.build()], {})


def _grid(n: int = 3):
    return [RunSpec(f"p{i}", small_config(1), _workload(f"w{i}", i + 1))
            for i in range(n)]


def _fails_on_w1_worker(config, programs, initial_memory, fault_plan=None,
                        node_plan=None):
    if programs[0].name == "w1.t0":
        raise ValueError("intentionally broken point")
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


# ---------------------------------------------------------- failure policy
#
# One policy on both paths: a point that raises or kills its worker
# fails run() on its first attempt, a wrong answer fails it once every
# point has run, and nothing is retried, requeued or excluded -- the
# next run() attempts the failed point again.

_ATTEMPTS_ENV = "REPRO_TEST_ATTEMPTS"


def _log_attempt(programs) -> None:
    with open(os.environ[_ATTEMPTS_ENV], "a") as fh:
        fh.write(f"{programs[0].name}\n")


def _attempts(path) -> list:
    return path.read_text().split() if path.exists() else []


def _logged_fails_on_w1_worker(config, programs, initial_memory,
                               fault_plan=None, node_plan=None):
    _log_attempt(programs)
    return _fails_on_w1_worker(config, programs, initial_memory, fault_plan)


def _logged_dies_on_w1_worker(config, programs, initial_memory,
                              fault_plan=None, node_plan=None):
    _log_attempt(programs)
    if programs[0].name == "w1.t0":
        os._exit(13)                            # a crash: no reply is sent
    return simulate_point(config, programs, initial_memory, fault_plan)


@pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "in-worker"])
def test_raising_point_is_attempted_once(tmp_path, monkeypatch, jobs):
    attempts = tmp_path / "attempts"
    monkeypatch.setenv(_ATTEMPTS_ENV, str(attempts))
    scheduler = SweepScheduler(jobs=jobs, worker=_logged_fails_on_w1_worker)
    scheduler.add("g", _grid(3))
    with pytest.raises(SweepError, match="intentionally broken point"):
        scheduler.run()
    assert _attempts(attempts).count("w1.t0") == 1
    assert multiprocessing.active_children() == []


def test_point_whose_worker_dies_is_attempted_once(tmp_path, monkeypatch):
    attempts = tmp_path / "attempts"
    monkeypatch.setenv(_ATTEMPTS_ENV, str(attempts))
    scheduler = SweepScheduler(jobs=2, worker=_logged_dies_on_w1_worker)
    scheduler.add("g", _grid(3))
    with pytest.raises(SweepError, match=r"'p1'.*worker process died"):
        scheduler.run()
    assert _attempts(attempts).count("w1.t0") == 1
    assert multiprocessing.active_children() == []


def test_next_run_attempts_a_failed_point_again(tmp_path, monkeypatch):
    # No skip list: the point that failed one run() fails the next one
    # too, while the point completed before it stays cached.
    attempts = tmp_path / "attempts"
    monkeypatch.setenv(_ATTEMPTS_ENV, str(attempts))
    scheduler = SweepScheduler(jobs=1, worker=_logged_fails_on_w1_worker)
    scheduler.add("g", _grid(3))
    for _ in range(2):
        with pytest.raises(SweepError, match="'p1'"):
            scheduler.run()
    assert _attempts(attempts) == ["w0.t0", "w1.t0", "w1.t0"]


def test_wrong_answer_fails_the_sweep_once_every_point_has_run(tmp_path):
    def wrong_answer(result):
        assert False, "wrong answer"

    store = str(tmp_path / "store")
    p0, p1, p2 = _grid(3)
    # Equal cost estimates, so p0 runs first, as declared.
    checked = RunSpec(p0.label, p0.config,
                      Workload(p0.workload.name, p0.workload.programs, {},
                               validate=wrong_answer))
    scheduler = SweepScheduler(jobs=1, store_dir=store)
    scheduler.add("g", [checked, p1, p2])
    with pytest.raises(SweepError,
                       match="'p0' in g produced a wrong answer"):
        scheduler.run()
    assert len(_records(store)) == 3            # p1 and p2 ran after p0


# ------------------------------------------------------- worker lifetime
#
# Workers live for one run() call and run point after point.  None
# outlives run(), whether it returns or raises: when a point fails, the
# workers still busy are reaped (SIGTERM, TERM_GRACE seconds, SIGKILL).

_MID_POINT_ENV = "REPRO_TEST_MID_POINT_MARKER"
_PID_DIR_ENV = "REPRO_TEST_PID_DIR"


def _pid_file_worker(config, programs, initial_memory, fault_plan=None,
                     node_plan=None):
    """Runs the point, leaving a file named after this process's pid."""
    open(os.path.join(os.environ[_PID_DIR_ENV], str(os.getpid())),
         "w").close()
    return simulate_point(config, programs, initial_memory, fault_plan)


def test_no_worker_outlives_a_clean_parallel_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    scheduler = SweepScheduler(jobs=2, worker=_pid_file_worker)
    scheduler.add("g", _grid(4))
    scheduler.run()
    assert len(scheduler.results_for("g")) == 4
    workers = [int(name) for name in os.listdir(tmp_path)]
    assert len(workers) == 2
    for pid in workers:
        # Joined by run(): neither running nor a zombie left to reap.
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
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


def _sigterm_immune_w1_worker(config, programs, initial_memory,
                              fault_plan=None, node_plan=None):
    """:func:`_fails_on_w0_while_w1_runs_worker`, with w1 ignoring
    SIGTERM before it starts."""
    if programs[0].name == "w1.t0":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return _fails_on_w0_while_w1_runs_worker(config, programs,
                                             initial_memory, fault_plan,
                                             node_plan)


def test_sigterm_immune_worker_is_kill_escalated(tmp_path, monkeypatch):
    # A busy worker of an aborting sweep gets SIGTERM, then TERM_GRACE
    # seconds, then SIGKILL: one wedged ignoring SIGTERM (a masked
    # handler, uninterruptible I/O) cannot hang the abort.
    marker = tmp_path / "w1-started"
    monkeypatch.setenv(_MID_POINT_ENV, str(marker))
    monkeypatch.setattr(parallel_module, "TERM_GRACE", 0.4)
    scheduler = SweepScheduler(jobs=2, worker=_sigterm_immune_w1_worker)
    scheduler.add("g", _grid(3))
    started = time.monotonic()
    with pytest.raises(SweepError, match="intentionally broken point"):
        scheduler.run()
    assert marker.exists()                      # w1 was mid-point
    # Within the lowered grace plus slack, and under the default 5 s.
    assert time.monotonic() - started < 4
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
