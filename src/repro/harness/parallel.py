"""Parallel sweep execution with cross-experiment result caching.

The reproduction's experiments are sweeps over independent
``(SystemConfig, Workload)`` points -- hundreds of single-threaded,
deterministic simulations with no shared state.  This module runs them
through one shared :class:`SweepScheduler` that

* **deduplicates** identical points across experiments (the six-point
  comparison grids repeat ``base-rmo`` etc. constantly) via a stable
  content fingerprint of the configuration and the assembled programs,
* **caches** every result in-process, so a scheduler reused across
  experiments simulates each unique point exactly once -- and, given a
  ``store_dir``, on disk through :class:`~repro.harness.store.ResultStore`,
  so a repeated grid or a sweep restarted after a kill is served from
  the store instead of simulated again, and
* **fans out** unique points over at most ``jobs`` worker processes
  (:class:`ResilientPointRunner`) when ``jobs > 1``: each worker lives
  for the whole :meth:`SweepScheduler.run` call and runs point after
  point, longest first by a static cost estimate, shipping back
  picklable :class:`~repro.system.SystemResult` summaries instead of
  live ``System`` objects.

Determinism: each point is one single-process discrete-event simulation
on its own ``System``, so its result is bit-identical whether it ran in
this process (``jobs=1``, the plain serial path, which also runs every
point in one process) or in a worker, whatever ran there before it --
a parallel sweep regenerates exactly the tables a serial sweep does,
just faster.

Workload ``validate`` closures are *not* picklable and never cross the
process boundary: workers receive only ``(config, programs,
initial_memory, fault_plan, node_plan)`` tuples and validation runs in
the parent on the returned memory/register snapshot.

**Resilience** (see docs/ROBUSTNESS.md): constructing the scheduler with
``point_timeout`` and/or ``retries`` makes a point that hangs past its
wall-clock budget, or whose worker process dies, retried with
exponential backoff and, once its attempts are exhausted, land on an
``excluded`` skip list instead of sinking the whole grid.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.faults.nodeplan import NodeFaultPlan
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.sim.config import SystemConfig
from repro.system import System, SystemResult
from repro.workloads.base import Workload

#: Simulated-time safety cap for harness-driven points: no experiment in
#: this suite comes near it, so tripping it means a liveness bug (the
#: library-level ``System.run`` default stays uncapped).
DEFAULT_MAX_CYCLES = 20_000_000


class SweepError(RuntimeError):
    """A sweep point failed (simulation error, bad result, dead worker)."""


@dataclass
class RunSpec:
    """One named simulation point inside an experiment's run grid."""

    label: str
    config: SystemConfig
    workload: Workload
    #: Run the workload's answer validation on the result (in the parent).
    check: bool = True
    #: Optional deterministic fault scenario (see repro.faults).
    fault_plan: Optional[FaultPlan] = None
    #: Optional deterministic node-fault (chaos) scenario.
    node_plan: Optional[NodeFaultPlan] = None

    def fingerprint(self) -> str:
        return point_fingerprint(self.config, self.workload, self.fault_plan,
                                 self.node_plan)


def point_fingerprint(config: SystemConfig, workload: Workload,
                      fault_plan: Optional[FaultPlan] = None,
                      node_plan: Optional[NodeFaultPlan] = None) -> str:
    """A stable content key for one ``(config, workload)`` point.

    Hashes the configuration (frozen dataclasses with deterministic
    ``repr``) and the *assembled* instruction streams plus initial
    memory.  Symbolic label names are excluded -- they contain a
    process-global uniquifying counter, so two builds of the same
    workload factory would otherwise never match -- while branch targets
    are already resolved to instruction indices and are covered.  An
    active fault plan is part of the point's identity; ``None`` hashes
    exactly as before the fault subsystem existed, so historical
    fingerprints (and the golden files built on them) are unchanged.
    """
    hasher = hashlib.sha256()
    hasher.update(repr(config).encode())
    hasher.update(b"\x00")
    hasher.update(workload.name.encode())
    for program in workload.programs:
        hasher.update(b"\x00prog\x00")
        for instr in program.instructions:
            hasher.update(repr(instr).encode())
            hasher.update(b";")
    for addr in sorted(workload.initial_memory):
        hasher.update(f"\x00{addr}={workload.initial_memory[addr]}".encode())
    if fault_plan is not None:
        hasher.update(b"\x00faults\x00")
        hasher.update(repr(fault_plan).encode())
    if node_plan is not None:
        hasher.update(b"\x00nodefaults\x00")
        hasher.update(repr(node_plan).encode())
    return hasher.hexdigest()


def result_fingerprint(result: SystemResult) -> str:
    """A stable content key for one :class:`SystemResult`.

    Hashes everything the experiment tables are built from: the final
    cycle count, the full scalar stats snapshot, every core's
    architectural registers, and the architectural memory image.  Two
    runs with equal fingerprints regenerate byte-identical stats tables,
    which is how the golden/determinism tests prove an engine
    optimization changed nothing observable.
    """
    hasher = hashlib.sha256()
    hasher.update(f"cycles={result.cycles}".encode())
    for name, value in sorted(result.stats.snapshot().items()):
        hasher.update(f"\x00{name}={value!r}".encode())
    for core in result.cores:
        hasher.update(f"\x00core{core.core_id}:".encode())
        hasher.update(repr(core.registers).encode())
        hasher.update(f"fin={core.finish_cycle}".encode())
    for addr in sorted(result._memory):
        hasher.update(f"\x00{addr}={result._memory[addr]}".encode())
    return hasher.hexdigest()


def simulate_point(config: SystemConfig, programs, initial_memory,
                   fault_plan: Optional[FaultPlan] = None,
                   node_plan: Optional[NodeFaultPlan] = None
                   ) -> Tuple[SystemResult, float]:
    """Run one point; returns the result and its wall-time in seconds.

    The default ``worker`` of both sweep paths, in-process and in a
    worker process, keeping the two literally the same code.  Harness
    points always run under the ``max_cycles`` safety cap, and
    fault-injected points (either axis: link faults or node faults)
    additionally get a liveness :class:`~repro.faults.Watchdog` -- a
    stuck point raises with a diagnostic dump instead of hanging the
    sweep.
    """
    started = time.perf_counter()
    system = System(config, programs, initial_memory, fault_plan=fault_plan,
                    node_plan=node_plan)
    perturbed = system.fault_plan is not None or system.node_plan is not None
    watchdog = Watchdog(system) if perturbed else None
    result = system.run(max_cycles=DEFAULT_MAX_CYCLES, watchdog=watchdog)
    return result, time.perf_counter() - started


def _worker_args(spec: RunSpec) -> tuple:
    """The positional worker-call tuple for one spec: every ``worker``
    callable takes these five fields."""
    return (spec.config, spec.workload.programs,
            spec.workload.initial_memory, spec.fault_plan, spec.node_plan)


def _cost_estimate(spec: RunSpec) -> Tuple[int, int]:
    """A static guess at a point's run time, for starting the longest
    points first: its core count, then its total static instructions.
    Points are independent, so a poor guess costs wall time, never a
    result."""
    return (spec.config.n_cores,
            sum(len(program.instructions)
                for program in spec.workload.programs))


def _point_worker(parent_end, conn, worker, args: List[tuple]) -> None:
    """Child-process entry of :class:`ResilientPointRunner`: run the
    points whose indices into ``args`` arrive over ``conn``, one at a
    time, until the stop sentinel ``None`` or EOF.  Each outcome goes
    back as ("ok", payload); an exception goes back as ("err", message)
    -- the parent re-raises it as a :class:`SweepError` naming the
    point -- and ends the worker, since the point may have left this
    process in any state.  A crash (the process dying without sending)
    surfaces as EOF on the parent's end."""
    # This process's copy of the parent's end would keep the pipe open
    # after the parent died, leaving the worker waiting forever.
    parent_end.close()
    # Keep the objects inherited from the parent out of this process's
    # collections: traversing them would copy the parent's pages on write.
    gc.freeze()
    try:
        while True:
            index = conn.recv()
            if index is None:
                return
            try:
                conn.send(("ok", worker(*args[index])))
            except BaseException as exc:  # noqa: BLE001 - forwarded, then exits
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
                return
    except (EOFError, OSError):
        pass  # the parent closed its end or died: no one is left to answer
    finally:
        conn.close()


class ResilientPointRunner:
    """Managed worker processes: the only out-of-process executor.

    :class:`SweepScheduler` runs every sweep through it except the
    in-process ``jobs=1`` path.  One :meth:`run` call keeps at most
    ``jobs`` daemonic :mod:`multiprocessing` workers alive, forking one
    only when a point is ready and no live worker is free, so never
    more than there are points.  Each worker gets the batch's worker
    arguments when it starts and then only point indices over its pipe,
    in the order of the batch; it answers with each outcome and waits
    for the next.  Every worker is joined, or reaped, before :meth:`run`
    returns or raises.

    Timeouts kill the worker; crashes surface as EOF; both requeue only
    that worker's in-flight point with exponential backoff and, once
    its attempts are exhausted, report it to ``on_exclude`` instead of
    sinking the rest of the batch.  Deterministic worker exceptions go
    straight to ``on_error`` -- retrying a deterministic simulation
    cannot change its outcome -- and retire the worker that raised.

    Kill semantics: a timed-out worker gets SIGTERM, then up to
    ``term_grace`` seconds to die, then SIGKILL -- a worker wedged in a
    state where it ignores SIGTERM can therefore never hang the batch.
    Each point's wall-clock budget starts when *it* is sent to a worker,
    so neither a fork nor a sibling's dispatch is ever charged against
    a point's ``point_timeout``.
    """

    def __init__(self, worker: Callable = simulate_point, jobs: int = 1,
                 point_timeout: Optional[float] = None,
                 retries: int = 0,
                 retry_backoff: float = 0.25,
                 term_grace: float = 5.0):
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if term_grace <= 0:
            raise ValueError("term_grace must be positive")
        self.worker = worker
        self.jobs = max(1, jobs)
        self.point_timeout = point_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.term_grace = term_grace
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")

    def _launch(self, args: List[tuple]):
        """Start one worker holding the batch's worker arguments;
        returns (parent_conn, process).  Under fork the list is
        inherited, not copied; under spawn it is pickled, which is why
        it holds plain argument tuples and never a :class:`RunSpec`."""
        parent_conn, child_conn = self._ctx.Pipe()
        # Daemonic: a worker dies with the sweep that started it.
        proc = self._ctx.Process(
            target=_point_worker,
            args=(parent_conn, child_conn, self.worker, args),
            daemon=True)
        proc.start()
        child_conn.close()
        return parent_conn, proc

    def _reap(self, proc) -> None:
        """SIGTERM, wait ``term_grace`` seconds, then escalate to SIGKILL."""
        proc.terminate()
        proc.join(self.term_grace)
        if proc.is_alive():
            proc.kill()
            proc.join()

    def _retire(self, conn, proc) -> None:
        """Close the pipe of a worker that has exited or been told to,
        and join it, reaping it if it outstays ``term_grace``."""
        conn.close()
        proc.join(self.term_grace)
        if proc.is_alive():  # pragma: no cover - told to exit, then wedged
            self._reap(proc)

    def _stop(self, idle) -> None:
        """Send every idle worker the stop sentinel, then join them all."""
        for conn, _ in idle:
            try:
                conn.send(None)
            except OSError:  # died while idle: nothing left to stop
                pass
        for conn, proc in idle:
            self._retire(conn, proc)

    def run(self, pending: List[Tuple[str, RunSpec]],
            on_result: Callable, on_error: Callable, on_exclude: Callable,
            on_retry: Optional[Callable] = None) -> None:
        """Run every ``(key, spec)`` point, in order, reporting through
        callbacks:

        ``on_result(key, spec, result, seconds)`` for a completed point,
        ``on_error(key, spec, message)`` for a deterministic worker
        exception (raising from it aborts the batch; returning skips the
        point), ``on_exclude(key, spec, reason)`` for a point dropped
        after exhausting its retries, and optional
        ``on_retry(key, spec, reason)`` before each re-attempt.
        """
        args = [_worker_args(spec) for _, spec in pending]
        work = [{"index": index, "key": key, "spec": spec, "attempt": 0,
                 "ready_at": 0.0}
                for index, (key, spec) in enumerate(pending)]
        #: (conn, process) of each worker waiting for a point
        idle: List = []
        #: conn -> (item, process, deadline or None)
        busy: Dict = {}

        def requeue_or_exclude(item, reason):
            attempt = item["attempt"] + 1
            if attempt > self.retries:
                on_exclude(item["key"], item["spec"],
                           f"{reason}; gave up after {attempt} attempt(s)")
                return
            if on_retry is not None:
                on_retry(item["key"], item["spec"], reason)
            item["attempt"] = attempt
            item["ready_at"] = time.monotonic() \
                + self.retry_backoff * (2 ** (attempt - 1))
            work.append(item)

        try:
            while work or busy:
                now = time.monotonic()
                while len(busy) < self.jobs:
                    index = next((i for i, item in enumerate(work)
                                  if item["ready_at"] <= now), None)
                    if index is None:
                        break
                    item = work.pop(index)
                    conn, proc = idle.pop() if idle else self._launch(args)
                    try:
                        conn.send(item["index"])
                    except OSError:  # died while idle: EOF below says so
                        pass
                    # Budget the timeout from *this* dispatch: a clock read
                    # taken before a fork or a sibling's dispatch would
                    # charge its cost against this point.
                    now = time.monotonic()
                    deadline = (now + self.point_timeout
                                if self.point_timeout is not None else None)
                    busy[conn] = (item, proc, deadline)
                if not busy:
                    # Everything left is backing off; sleep to the nearest
                    # retry release.
                    time.sleep(max(0.0, min(item["ready_at"] for item in work)
                                   - time.monotonic()))
                    continue
                now = time.monotonic()
                wait_for = 0.05
                deadlines = [d for _, _, d in busy.values() if d is not None]
                if deadlines:
                    wait_for = min(wait_for, max(0.0, min(deadlines) - now))
                for conn in mp_connection.wait(list(busy), timeout=wait_for):
                    item, proc, _ = busy.pop(conn)
                    try:
                        status, payload = conn.recv()
                    except (EOFError, OSError):
                        self._retire(conn, proc)
                        requeue_or_exclude(
                            item,
                            f"worker process died (exit code {proc.exitcode})")
                        continue
                    if status == "ok":
                        idle.append((conn, proc))
                        result, seconds = payload
                        on_result(item["key"], item["spec"], result, seconds)
                    else:
                        self._retire(conn, proc)
                        on_error(item["key"], item["spec"], payload)
                now = time.monotonic()
                for conn, (item, proc, deadline) in list(busy.items()):
                    if deadline is not None and now > deadline and not conn.poll():
                        del busy[conn]
                        self._reap(proc)
                        conn.close()
                        requeue_or_exclude(
                            item,
                            f"timed out after {self.point_timeout:g}s")
        finally:
            self._stop(idle)
            for conn, (item, proc, _) in busy.items():
                self._reap(proc)
                conn.close()


@dataclass
class SweepReport:
    """Aggregate timing/dedup evidence for one :meth:`SweepScheduler.run`."""

    jobs: int
    unique_points: int
    duplicate_hits: int
    cached_hits: int
    wall_seconds: float
    point_seconds: Dict[str, float] = field(default_factory=dict)
    #: points restored from the on-disk result store
    store_hits: int = 0
    #: timeout/crash retries performed during this run
    retries: int = 0
    #: label -> reason for points dropped after exhausting their retries
    excluded: Dict[str, str] = field(default_factory=dict)

    @property
    def serial_seconds(self) -> float:
        """Sum of per-point wall times (the serial-equivalent cost)."""
        return sum(self.point_seconds.values())

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.wall_seconds if self.wall_seconds else 0.0

    def render(self) -> str:
        line = (f"sweep: {self.unique_points} unique points "
                f"({self.duplicate_hits} deduplicated, "
                f"{self.cached_hits} cached), jobs={self.jobs}, "
                f"wall {self.wall_seconds:.1f}s")
        if self.store_hits:
            line += f", {self.store_hits} from store"
        if self.retries:
            line += f", {self.retries} retried"
        if self.unique_points and self.wall_seconds:
            line += (f", serial-equivalent {self.serial_seconds:.1f}s, "
                     f"speedup {self.speedup:.2f}x")
        if self.excluded:
            details = "; ".join(f"{label!r}: {reason}"
                                for label, reason in self.excluded.items())
            line += f"\nsweep: EXCLUDED {len(self.excluded)} point(s): {details}"
        return line


class SweepScheduler:
    """Deduplicating, optionally parallel executor for sweep grids.

    Usage::

        scheduler = SweepScheduler(jobs=4)
        scheduler.add("E1", e1_plan())
        scheduler.add("E2", e2_plan())   # shared points dedup against E1
        scheduler.run()                  # each unique point simulated once
        e1 = e1_build(scheduler.results_for("E1"))

    With ``jobs=1``, or a single point to simulate, and no resilience
    option, points run in this process, strictly serially (the
    debugging path).  Every other sweep runs its points in up to
    ``jobs`` worker processes through a :class:`ResilientPointRunner`,
    each worker running point after point until the sweep ends; a
    worker that dies then fails :meth:`run` with a :class:`SweepError`
    naming its point, unless a resilience option says to retry or
    exclude it.  On both paths points start longest first, by a static
    cost estimate (core count, then static instructions), with ties in
    declaration order, so that no worker is left finishing a long point
    alone at the end.  Results are cached by point fingerprint, so
    calling :meth:`run` again after adding more experiments only
    simulates points not seen before.

    Resilience options:

    ``point_timeout``
        wall-clock seconds one point may take before its worker is
        killed and the point retried;
    ``retries``
        how many times a timed-out or crashed point is re-attempted
        (with ``retry_backoff * 2**attempt`` seconds between attempts)
        before landing on the :attr:`excluded` skip list -- deterministic
        Python exceptions are *not* retried, they raise immediately.

    ``store_dir`` names a :class:`~repro.harness.store.ResultStore`
    directory: every point found there is restored instead of
    simulated, and every simulated point is written there, so a killed
    sweep resumes where it left off and a repeated grid simulates
    nothing.  Records that fail validation, or were written by other
    simulator code, are re-simulated rather than trusted.
    """

    def __init__(self, jobs: Optional[int] = None,
                 worker: Callable = simulate_point,
                 point_timeout: Optional[float] = None,
                 retries: int = 0,
                 retry_backoff: float = 0.25,
                 term_grace: float = 5.0,
                 store_dir: Optional[str] = None):
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self._worker = worker
        self._runner = ResilientPointRunner(
            worker=worker, jobs=self.jobs, point_timeout=point_timeout,
            retries=retries, retry_backoff=retry_backoff,
            term_grace=term_grace)
        self._resilient = point_timeout is not None or retries > 0
        self._store = None
        if store_dir is not None:
            # Late import: repro.harness.store imports result_fingerprint
            # from this module.
            from repro.harness.store import ResultStore
            self._store = ResultStore(store_dir)
        #: fingerprint -> reason: points dropped after exhausting retries.
        self.excluded: Dict[str, str] = {}
        #: subset of :attr:`excluded` added during the current run() call.
        self._excluded_this_run: Dict[str, str] = {}
        self._retries_this_run = 0
        #: exp_id -> list of (fingerprint, spec), in plan order.
        self._grids: Dict[str, List[Tuple[str, RunSpec]]] = {}
        #: fingerprint -> representative spec, insertion-ordered.
        self._points: Dict[str, RunSpec] = {}
        self._results: Dict[str, SystemResult] = {}
        self._checked: Set[Tuple[str, str]] = set()
        self._point_seconds: Dict[str, float] = {}
        self.duplicate_hits = 0
        self.last_report: Optional[SweepReport] = None

    # ---------------------------------------------------------------- grid

    def add(self, exp_id: str, specs: List[RunSpec]) -> None:
        """Register one experiment's run grid (labels unique per grid)."""
        grid = self._grids.setdefault(exp_id, [])
        seen_labels = {s.label for _, s in grid}
        for spec in specs:
            if spec.label in seen_labels:
                raise ValueError(
                    f"duplicate label {spec.label!r} in grid {exp_id!r}")
            seen_labels.add(spec.label)
            if len(spec.workload.programs) != spec.config.n_cores:
                raise ValueError(
                    f"{exp_id}/{spec.label}: workload {spec.workload.name!r} "
                    f"has {len(spec.workload.programs)} threads but config "
                    f"has {spec.config.n_cores} cores")
            fp = spec.fingerprint()
            if fp in self._points:
                self.duplicate_hits += 1
            else:
                self._points[fp] = spec
            grid.append((fp, spec))

    @property
    def unique_points(self) -> int:
        return len(self._points)

    # ----------------------------------------------------------- execution

    def run(self) -> SweepReport:
        """Simulate every not-yet-cached unique point, then validate.

        Returns a :class:`SweepReport`; raises :class:`SweepError` with
        the failing point's label if any simulation or validation fails.
        Previously excluded points are skipped, not re-attempted.
        """
        todo = [(fp, spec) for fp, spec in self._points.items()
                if fp not in self._results]
        cached = len(self._points) - len(todo)
        pending = [(fp, spec) for fp, spec in todo if fp not in self.excluded]
        store_hits = self._restore(pending)
        if store_hits:
            pending = [(fp, spec) for fp, spec in pending
                       if fp not in self._results]
        # Stable, so points of equal estimate keep their declared order.
        pending.sort(key=lambda point: _cost_estimate(point[1]), reverse=True)
        self._retries_this_run = 0
        self._excluded_this_run = {}
        started = time.perf_counter()
        if not self._resilient and (self.jobs == 1 or len(pending) <= 1):
            self._run_serial(pending)
        else:
            self._run_resilient(pending)
        wall = time.perf_counter() - started
        self._validate()
        self.last_report = SweepReport(
            jobs=self.jobs,
            unique_points=len(pending),
            duplicate_hits=self.duplicate_hits,
            cached_hits=cached,
            wall_seconds=wall,
            point_seconds={self._points[fp].label: self._point_seconds[fp]
                           for fp, _ in pending if fp in self._point_seconds},
            store_hits=store_hits,
            retries=self._retries_this_run,
            # Only exclusions added by *this* run: a cumulative list would
            # re-report prior runs' drops as this run's.
            excluded={self._points[fp].label: reason
                      for fp, reason in self._excluded_this_run.items()},
        )
        return self.last_report

    @staticmethod
    def _point_error(spec: RunSpec, exc: Exception) -> SweepError:
        """A SweepError identifying the offending (config, workload) point."""
        return SweepError(
            f"sweep point {spec.label!r} (workload {spec.workload.name!r}, "
            f"{spec.config.describe()}) failed: {exc}")

    def _run_serial(self, pending: List[Tuple[str, RunSpec]]) -> None:
        for fp, spec in pending:
            try:
                result, seconds = self._worker(*_worker_args(spec))
            except Exception as exc:
                raise self._point_error(spec, exc) from exc
            self._record(fp, result, seconds)

    def _run_resilient(self, pending: List[Tuple[str, RunSpec]]) -> None:
        """Run ``pending`` through the :class:`ResilientPointRunner`,
        wired into this scheduler's results, exclusion list, and retry
        counter."""

        def on_result(fp, spec, result, seconds):
            self._record(fp, result, seconds)

        def on_error(fp, spec, message):
            raise self._point_error(spec, RuntimeError(message))

        def on_exclude(fp, spec, reason):
            if not self._resilient:
                raise self._point_error(spec, RuntimeError(
                    f"{reason}; rerun with --jobs 1 to debug in-process"))
            self.excluded[fp] = reason
            self._excluded_this_run[fp] = reason

        def on_retry(fp, spec, reason):
            self._retries_this_run += 1

        self._runner.run(pending, on_result=on_result, on_error=on_error,
                         on_exclude=on_exclude, on_retry=on_retry)

    # -------------------------------------------------------------- store

    def _restore(self, pending: List[Tuple[str, RunSpec]]) -> int:
        """Restore pending points from the result store; returns the
        number restored."""
        if self._store is None:
            return 0
        hits = 0
        for fp, _spec in pending:
            result = self._store.get(fp)
            if result is not None:
                self._results[fp] = result
                hits += 1
        return hits

    def _record(self, fp: str, result: SystemResult, seconds: float) -> None:
        self._results[fp] = result
        self._point_seconds[fp] = seconds
        if self._store is not None:
            self._store.put(fp, result)

    def _validate(self) -> None:
        """Run each spec's workload validation once, in the parent."""
        for exp_id, grid in self._grids.items():
            for fp, spec in grid:
                key = (exp_id, spec.label)
                if not spec.check or key in self._checked:
                    continue
                if fp not in self._results:
                    continue
                try:
                    spec.workload.check(self._results[fp])
                except AssertionError as exc:
                    raise SweepError(
                        f"sweep point {spec.label!r} in {exp_id} produced a "
                        f"wrong answer: {exc}") from exc
                self._checked.add(key)

    # ------------------------------------------------------------- results

    def results_for(self, exp_id: str) -> Dict[str, SystemResult]:
        """Label -> result mapping for one registered experiment.

        Raises :class:`SweepError` if any of the experiment's points was
        excluded by the resilience policy -- a table silently built from
        a partial grid would be worse than no table.
        """
        grid = self._grids[exp_id]
        dropped = [(spec.label, self.excluded[fp]) for fp, spec in grid
                   if fp in self.excluded and fp not in self._results]
        if dropped:
            details = "; ".join(f"{label!r} ({reason})"
                                for label, reason in dropped)
            raise SweepError(
                f"{exp_id}: {len(dropped)} point(s) excluded by the "
                f"resilience policy: {details}")
        missing = [spec.label for fp, spec in grid if fp not in self._results]
        if missing:
            raise SweepError(
                f"{exp_id}: points {missing} not simulated yet; call run()")
        return {spec.label: self._results[fp] for fp, spec in grid}


def execute_specs(specs: List[RunSpec], jobs: int = 1
                  ) -> Dict[str, SystemResult]:
    """One-shot helper: run a single grid and return label -> result."""
    scheduler = SweepScheduler(jobs=jobs)
    scheduler.add("adhoc", specs)
    scheduler.run()
    return scheduler.results_for("adhoc")
