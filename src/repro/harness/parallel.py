"""Parallel sweep execution with cross-experiment result caching.

The reproduction's experiments are sweeps over independent
``(SystemConfig, Workload)`` points -- hundreds of single-threaded,
deterministic simulations with no shared state.  This module runs them
through one shared :class:`SweepScheduler` that

* **deduplicates** points that build the same machine, across
  experiments (the six-point comparison grids repeat ``base-rmo`` etc.
  constantly) and within them (a TSO point and its RMO twin, whose
  policies answer every question the core asks alike), via a stable
  content fingerprint of the configuration and the assembled programs,
* **caches** every result in-process, so a scheduler reused across
  experiments simulates each unique point exactly once -- and, given a
  ``store_dir``, on disk through :class:`~repro.harness.store.ResultStore`,
  so a repeated grid or a sweep restarted after a kill is served from
  the store instead of simulated again, and
* **fans out** unique points over at most ``jobs`` worker processes
  when ``jobs > 1``: each worker lives for the whole
  :meth:`SweepScheduler.run` call and runs point after point, longest
  first by a static cost estimate, shipping back picklable
  :class:`~repro.system.SystemResult` summaries instead of live
  ``System`` objects.

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

Failures (see docs/ROBUSTNESS.md): a point that raises or kills its
worker process fails the sweep at once with a :class:`SweepError`
naming every ``exp_id/label`` declared on it, and a label whose answer
fails its workload's check fails it once every point has run.  Nothing
is retried or skipped, and no worker outlives the sweep.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.consistency import canonical_model
from repro.faults.nodeplan import NodeFaultPlan
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.isa.program import Program
from repro.sim.config import SystemConfig
from repro.system import System, SystemResult
from repro.workloads.base import Workload

#: Simulated-time safety cap for harness-driven points: no experiment in
#: this suite comes near it, so tripping it means a liveness bug (the
#: library-level ``System.run`` default stays uncapped).
DEFAULT_MAX_CYCLES = 20_000_000

#: Seconds a worker gets to exit, once told to stop or sent SIGTERM,
#: before it is sent SIGKILL: a worker that ignores SIGTERM cannot hang
#: a sweep that aborts.
TERM_GRACE = 5.0


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


def _program_digest(program: Program) -> bytes:
    """The sha256 digest of a program's *assembled* instruction stream."""
    hasher = hashlib.sha256()
    for instr in program.instructions:
        hasher.update(repr(instr).encode())
        hasher.update(b";")
    return hasher.digest()


def point_fingerprint(config: SystemConfig, workload: Workload,
                      fault_plan: Optional[FaultPlan] = None,
                      node_plan: Optional[NodeFaultPlan] = None) -> str:
    """A stable content key for one ``(config, workload)`` point: the
    machine it builds.

    Hashes the configuration (frozen dataclasses with deterministic
    ``repr``) with its consistency model replaced by the model's
    :func:`~repro.consistency.canonical_model`, the digest of each
    program's *assembled* instruction stream, and the initial memory.
    The core reads its model only through its policy, so an RMO point
    builds the same machine as its TSO twin and shares its key.
    Symbolic label names are excluded -- they contain a process-global
    uniquifying counter, so two builds of the same workload factory
    would otherwise never match -- while branch targets are already
    resolved to instruction indices and are covered.  An active fault
    plan is part of the point's identity.

    Each program's digest is computed once per program object and
    cached on it (:meth:`~repro.isa.program.Program.derived`), so the
    points of a plan that share programs hash each one once.  Key
    *values* may change between versions of this module -- the result
    store files records under the simulator's source digest, so no
    store outlives them -- but which points share a key may not.
    """
    canonical = canonical_model(config.core.consistency)
    if canonical is not config.core.consistency:
        config = config.with_consistency(canonical)
    hasher = hashlib.sha256()
    hasher.update(repr(config).encode())
    hasher.update(b"\x00")
    hasher.update(workload.name.encode())
    for program in workload.programs:
        hasher.update(b"\x00prog\x00")
        hasher.update(program.derived("point_digest", _program_digest))
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
    """Child-process entry of a :class:`SweepScheduler` worker: run the
    points whose indices into ``args`` arrive over ``conn``, one at a
    time, until the stop sentinel ``None`` or EOF.  Each outcome goes
    back as ("ok", (payload, cpu seconds of the point)); an exception
    goes back as ("err", message)
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
                cpu = time.process_time()
                payload = worker(*args[index])
                conn.send(("ok", (payload, time.process_time() - cpu)))
            except BaseException as exc:  # noqa: BLE001 - forwarded, then exits
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
                return
    except (EOFError, OSError):
        pass  # the parent closed its end or died: no one is left to answer
    finally:
        conn.close()


def _reap(proc) -> None:
    """SIGTERM, wait :data:`TERM_GRACE` seconds, then escalate to SIGKILL."""
    proc.terminate()
    proc.join(TERM_GRACE)
    if proc.is_alive():
        proc.kill()
        proc.join()


def _retire(conn, proc) -> None:
    """Close the pipe of a worker that has exited or been told to, and
    join it, reaping it if it outstays :data:`TERM_GRACE`."""
    conn.close()
    proc.join(TERM_GRACE)
    if proc.is_alive():  # pragma: no cover - told to exit, then wedged
        _reap(proc)


@dataclass
class SweepReport:
    """Aggregate timing/dedup evidence for one :meth:`SweepScheduler.run`."""

    jobs: int
    unique_points: int
    duplicate_hits: int
    cached_hits: int
    wall_seconds: float
    point_seconds: Dict[str, float] = field(default_factory=dict)
    #: label -> CPU seconds of the process that ran the point
    point_cpu_seconds: Dict[str, float] = field(default_factory=dict)
    #: points restored from the on-disk result store
    store_hits: int = 0

    @property
    def serial_seconds(self) -> float:
        """Sum of per-point wall times.  It counts time a worker spent
        descheduled, so with more workers than CPUs it overstates what
        the points would cost run one after another."""
        return sum(self.point_seconds.values())

    @property
    def serial_cpu_seconds(self) -> float:
        """Sum of per-point CPU seconds: the serial-equivalent cost."""
        return sum(self.point_cpu_seconds.values())

    @property
    def speedup(self) -> float:
        return (self.serial_cpu_seconds / self.wall_seconds
                if self.wall_seconds else 0.0)

    def render(self) -> str:
        line = (f"sweep: {self.unique_points} unique points "
                f"({self.duplicate_hits} deduplicated, "
                f"{self.cached_hits} cached), jobs={self.jobs}, "
                f"wall {self.wall_seconds:.1f}s")
        if self.store_hits:
            line += f", {self.store_hits} from store"
        if self.unique_points and self.wall_seconds:
            line += (f", serial-equivalent {self.serial_cpu_seconds:.1f}s, "
                     f"speedup {self.speedup:.2f}x")
        return line


class SweepScheduler:
    """Deduplicating, optionally parallel executor for sweep grids.

    Usage::

        scheduler = SweepScheduler(jobs=4)
        scheduler.add("E1", e1_plan())
        scheduler.add("E2", e2_plan())   # shared points dedup against E1
        scheduler.run()                  # each unique point simulated once
        e1 = e1_build(scheduler.results_for("E1"))

    ``jobs`` is ``None`` (one worker per CPU) or an integer of at least
    1.  With ``jobs=1``, or a single point to simulate, points run in
    this process, strictly serially (the debugging path).  Every other
    sweep runs its points in up to ``jobs`` worker processes, each
    running point after point until the sweep ends.  On both paths
    points start longest first, by a static cost estimate (core count,
    then static instructions), with ties in declaration order, so that
    no worker is left finishing a long point alone at the end.  Results
    are cached by point fingerprint, which keys a point by the machine
    it builds, so calling :meth:`run` again after adding more
    experiments only simulates points not seen before, and a TSO point
    and its RMO twin are simulated once: each label still gets a result
    carrying its own config (see :meth:`results_for`).

    A sweep has one failure policy: a point that raises or kills its
    worker fails :meth:`run` at once with a :class:`SweepError` naming
    it, and so does a label whose answer fails its check, once every
    point has run.  Nothing is retried or skipped -- a point is a
    deterministic simulation, so rerunning it cannot change its
    outcome -- and a runaway simulation raises at
    :data:`DEFAULT_MAX_CYCLES` or ``System.run``'s event cap instead
    of spinning forever.

    ``store_dir`` names a :class:`~repro.harness.store.ResultStore`
    directory: every point found there is restored instead of
    simulated, and every simulated point is written there, so a killed
    or failed sweep resumes where it left off and a repeated grid
    simulates nothing.  Records that fail validation, or were written
    by other simulator code, are re-simulated rather than trusted.
    """

    def __init__(self, jobs: Optional[int] = None,
                 worker: Callable = simulate_point,
                 store_dir: Optional[str] = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        elif not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be None (one per CPU) or an "
                             f"integer >= 1, got {jobs!r}")
        self.jobs = jobs
        self._worker = worker
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")
        self._store = None
        if store_dir is not None:
            # Late import: repro.harness.store imports result_fingerprint
            # from this module.
            from repro.harness.store import ResultStore
            self._store = ResultStore(store_dir)
        #: exp_id -> list of (fingerprint, spec), in plan order.
        self._grids: Dict[str, List[Tuple[str, RunSpec]]] = {}
        #: fingerprint -> representative spec, insertion-ordered.
        self._points: Dict[str, RunSpec] = {}
        self._results: Dict[str, SystemResult] = {}
        #: (fingerprint, model) -> a result's copy carrying a twin's config
        self._twins: Dict[tuple, SystemResult] = {}
        self._checked: Set[Tuple[str, str]] = set()
        self._point_seconds: Dict[str, float] = {}
        self._point_cpu_seconds: Dict[str, float] = {}
        self.duplicate_hits = 0
        self.last_report: Optional[SweepReport] = None

    # ---------------------------------------------------------------- grid

    def add(self, exp_id: str, specs: List[RunSpec]) -> None:
        """Register one experiment's run grid (labels unique per grid).

        All or nothing: every spec is checked and fingerprinted before
        any is registered, so a grid that raises ``ValueError`` leaves
        the scheduler as it was.
        """
        seen_labels = {s.label for _, s in self._grids.get(exp_id, ())}
        keyed = []
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
            keyed.append((spec.fingerprint(), spec))
        for fp, spec in keyed:
            if fp in self._points:
                self.duplicate_hits += 1
            else:
                self._points[fp] = spec
        self._grids.setdefault(exp_id, []).extend(keyed)

    @property
    def unique_points(self) -> int:
        return len(self._points)

    # ----------------------------------------------------------- execution

    def run(self) -> SweepReport:
        """Simulate every not-yet-cached unique point, then validate.

        Returns a :class:`SweepReport`; raises :class:`SweepError`
        naming the failing point if any simulation or validation fails.
        """
        pending = [(fp, spec) for fp, spec in self._points.items()
                   if fp not in self._results]
        cached = len(self._points) - len(pending)
        store_hits = self._restore(pending)
        if store_hits:
            pending = [(fp, spec) for fp, spec in pending
                       if fp not in self._results]
        # Stable, so points of equal estimate keep their declared order.
        pending.sort(key=lambda point: _cost_estimate(point[1]), reverse=True)
        started = time.perf_counter()
        if self.jobs == 1 or len(pending) <= 1:
            self._run_serial(pending)
        else:
            self._run_workers(pending)
        wall = time.perf_counter() - started
        self._validate()
        self.last_report = SweepReport(
            jobs=self.jobs,
            unique_points=len(pending),
            duplicate_hits=self.duplicate_hits,
            cached_hits=cached,
            wall_seconds=wall,
            point_seconds={self._points[fp].label: self._point_seconds[fp]
                           for fp, _ in pending},
            point_cpu_seconds={
                self._points[fp].label: self._point_cpu_seconds[fp]
                for fp, _ in pending},
            store_hits=store_hits,
        )
        return self.last_report

    def _point_error(self, fp: str, exc: Exception) -> SweepError:
        """A SweepError naming every ``exp_id/label`` declared on the
        failed point, each with its own workload and config."""
        names = "; ".join(
            f"{exp_id}/{spec.label!r} (workload {spec.workload.name!r}, "
            f"{spec.config.describe()})"
            for exp_id, grid in self._grids.items()
            for key, spec in grid if key == fp)
        return SweepError(f"sweep point {names} failed: {exc}")

    def _run_serial(self, pending: List[Tuple[str, RunSpec]]) -> None:
        # Keep what exists before the sweep (plans, programs, modules) out
        # of its collections, as a worker does, unless a caller already
        # froze it.
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            for fp, spec in pending:
                cpu = time.process_time()
                try:
                    result, seconds = self._worker(*_worker_args(spec))
                except Exception as exc:
                    raise self._point_error(fp, exc) from exc
                self._record(fp, result, (seconds, time.process_time() - cpu))
        finally:
            if freeze:
                gc.unfreeze()

    def _launch(self, args: List[tuple]):
        """Start one worker holding the batch's worker arguments;
        returns (parent_conn, process).  Under fork the list is
        inherited, not copied; under spawn it is pickled, which is why
        it holds plain argument tuples and never a :class:`RunSpec`."""
        parent_conn, child_conn = self._ctx.Pipe()
        # Daemonic: a worker dies with the sweep that started it.
        proc = self._ctx.Process(
            target=_point_worker,
            args=(parent_conn, child_conn, self._worker, args),
            daemon=True)
        proc.start()
        child_conn.close()
        return parent_conn, proc

    def _run_workers(self, pending: List[Tuple[str, RunSpec]]) -> None:
        """Run ``pending``, in order, in up to ``jobs`` worker processes.

        A worker is forked only when a point is ready and no live worker
        is free, so never more than there are points.  Each gets the
        batch's worker arguments when it starts and then only point
        indices over its pipe; it answers with each outcome and waits
        for the next.  The first point that raises, or whose worker
        dies, raises :class:`SweepError`.  Every worker is joined before
        this returns or raises: idle ones are told to stop, and the
        busy ones of a failed sweep are reaped with :func:`_reap`.
        """
        args = [_worker_args(spec) for _, spec in pending]
        #: (conn, process) of each worker waiting for a point
        idle: List[tuple] = []
        #: conn -> (fingerprint, process) of each worker running a point
        busy: Dict = {}
        sent = 0
        try:
            while sent < len(pending) or busy:
                while sent < len(pending) and len(busy) < self.jobs:
                    conn, proc = idle.pop() if idle else self._launch(args)
                    try:
                        conn.send(sent)
                    except OSError:  # died while idle: EOF below says so
                        pass
                    busy[conn] = (pending[sent][0], proc)
                    sent += 1
                for conn in mp_connection.wait(list(busy)):
                    fp, proc = busy.pop(conn)
                    try:
                        status, payload = conn.recv()
                    except (EOFError, OSError):
                        status = None
                    if status == "ok":
                        idle.append((conn, proc))
                        (result, seconds), cpu = payload
                        self._record(fp, result, (seconds, cpu))
                        continue
                    _retire(conn, proc)
                    if status is None:
                        payload = (f"worker process died (exit code "
                                   f"{proc.exitcode}); rerun with --jobs 1 "
                                   "to debug in-process")
                    raise self._point_error(fp, RuntimeError(payload))
        finally:
            for conn, _ in idle:
                try:
                    conn.send(None)
                except OSError:  # died while idle: nothing left to stop
                    pass
            for conn, proc in idle:
                _retire(conn, proc)
            for conn, (_, proc) in busy.items():
                _reap(proc)
                conn.close()

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

    def _record(self, fp: str, result: SystemResult,
                times: Tuple[float, float]) -> None:
        self._results[fp] = result
        self._point_seconds[fp], self._point_cpu_seconds[fp] = times
        if self._store is not None:
            self._store.put(fp, result)

    def _result(self, fp: str, spec: RunSpec) -> SystemResult:
        """The result of ``spec``'s point, carrying ``spec.config``.

        Points that share a fingerprint build the same machine, and
        their configs can differ only in a consistency model with the
        same canonical model.  Such a twin gets a shallow copy with its
        own config, made once per model, so labels with equal configs
        share one object.  A worker result that is not a
        :class:`SystemResult` is served as it is.
        """
        result = self._results[fp]
        if not isinstance(result, SystemResult) or result.config == spec.config:
            return result
        key = (fp, spec.config.core.consistency)
        if key not in self._twins:
            twin = copy.copy(result)
            twin.config = spec.config
            self._twins[key] = twin
        return self._twins[key]

    def _validate(self) -> None:
        """Run each spec's workload validation once, in the parent."""
        for exp_id, grid in self._grids.items():
            for fp, spec in grid:
                key = (exp_id, spec.label)
                if not spec.check or key in self._checked:
                    continue
                try:
                    spec.workload.check(self._result(fp, spec))
                except AssertionError as exc:
                    raise SweepError(
                        f"sweep point {spec.label!r} in {exp_id} produced a "
                        f"wrong answer: {exc}") from exc
                self._checked.add(key)

    # ------------------------------------------------------------- results

    def results_for(self, exp_id: str) -> Dict[str, SystemResult]:
        """Label -> result mapping for one registered experiment; each
        result carries its label's own config.

        Raises :class:`SweepError` if ``exp_id`` was never added (a
        rejected :meth:`add` adds nothing), or if any of its points has
        not been simulated -- a table silently built from a partial grid
        would be worse than no table.
        """
        grid = self._grids.get(exp_id)
        if grid is None:
            raise SweepError(
                f"no experiment {exp_id!r} was added; added: "
                f"{sorted(self._grids) or 'none'}")
        missing = [spec.label for fp, spec in grid if fp not in self._results]
        if missing:
            raise SweepError(
                f"{exp_id}: points {missing} not simulated yet; call run()")
        return {spec.label: self._result(fp, spec) for fp, spec in grid}


def execute_specs(specs: List[RunSpec], jobs: Optional[int] = 1
                  ) -> Dict[str, SystemResult]:
    """One-shot helper: run a single grid and return label -> result;
    ``jobs`` as for :class:`SweepScheduler`."""
    scheduler = SweepScheduler(jobs=jobs)
    scheduler.add("adhoc", specs)
    scheduler.run()
    return scheduler.results_for("adhoc")
