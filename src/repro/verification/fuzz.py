"""Consistency fuzzing: random litmus programs, per-model checking,
failure minimization.

The fuzzer closes the loop the paper's correctness argument needs: the
speculation machinery (InvisiFence-style invisible buffering, rollback,
ordering-stall elision) must be *unobservable* -- every execution it
produces must still satisfy the configured consistency model's axioms.
So we generate small random multi-threaded programs with globally
unique written values (:func:`repro.workloads.randmix.random_litmus_ops`),
run each under a sweep of model x speculation-mode x timing-skew
configurations with the :class:`~repro.verification.recorder.ExecutionRecorder`
attached, and feed the committed log to the per-model ordering checker
(:mod:`repro.verification.ordering`) plus the coherence-level axioms.

On a violation the offending case is **shrunk** -- greedy fixpoint of
drop-thread and drop-op passes over the litmus IR, keeping any
reduction that still violates -- and can be emitted as a standalone
reproducer script, so a fuzz failure arrives as a six-line litmus test
rather than a 60-op haystack.

Deliberate bug injection (``inject=`` in :func:`run_case`) wires in two
test-only defects to prove the pipeline actually catches bugs:

* ``"sc-load-no-drain"`` -- SC loads no longer wait for the store
  buffer to drain, silently giving SC machines TSO behaviour;
* ``"stale-forward"`` -- store-buffer forwarding returns the *oldest*
  matching entry instead of the youngest.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.consistency import canonical_model
from repro.sim.config import (
    CacheConfig,
    ConsistencyModel,
    CoreConfig,
    InterconnectConfig,
    MemoryConfig,
    SpeculationConfig,
    SpeculationMode,
    SystemConfig,
)
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.sim.engine import SimulationError
from repro.system import System
from repro.verification.checker import ConsistencyViolation, check_execution
from repro.verification.minimize import Budget, minimize
from repro.verification.recorder import ExecutionRecorder
from repro.workloads.randmix import (
    MemOp,
    compile_litmus_ops,
    litmus_instruction_count,
    random_litmus_ops,
)

#: Bug-injection knobs accepted by :func:`run_case`.
INJECTIONS = ("sc-load-no-drain", "stale-forward")

#: Simulated-time cap for fuzz runs: litmus-sized programs finish in a
#: few thousand cycles, so this is pure deadlock insurance.
FUZZ_MAX_CYCLES = 2_000_000

#: Speculation modes the sweep exercises: off, passive InvisiFence
#: (speculate on demand at ordering stalls), and continuous.
SWEEP_SPECS = (SpeculationMode.NONE, SpeculationMode.ON_DEMAND,
               SpeculationMode.CONTINUOUS)

#: Per-thread EXEC skews the sweep draws from; staggering issue times
#: steers the simulator into different interleavings of the same program.
SKEW_CHOICES = (0, 3, 11, 27)


@lru_cache(maxsize=16)
def fuzz_config(n_threads: int, model: ConsistencyModel,
                spec: SpeculationMode) -> SystemConfig:
    """A small, fast machine for fuzz runs (mirrors the test config).

    Memoized per process: the config is frozen, and a campaign asks for
    the same few (threads x model x speculation mode) machines for every
    program it runs.
    """
    return SystemConfig(
        n_cores=n_threads,
        l1=CacheConfig(size_bytes=4 * 1024, assoc=4, block_bytes=64,
                       hit_latency=2),
        memory=MemoryConfig(l2_hit_latency=8, dram_latency=40,
                            directory_latency=2),
        interconnect=InterconnectConfig(link_latency=3),
        core=CoreConfig(consistency=model, store_buffer_entries=8),
        speculation=SpeculationConfig(mode=spec),
    )


@dataclass(frozen=True)
class FuzzCase:
    """One runnable fuzz input: litmus IR + machine configuration."""

    threads: Tuple[Tuple[MemOp, ...], ...]
    model: ConsistencyModel
    spec: SpeculationMode
    skews: Tuple[int, ...] = ()
    seed: int = 0                     #: generator seed (provenance only)
    inject: Optional[str] = None      #: bug-injection knob, test-only
    #: optional deterministic fault scenario (see repro.faults); shrunk
    #: cases and reproducers carry it unchanged, so a failure found
    #: under faults is replayed under the same faults
    fault_plan: Optional[FaultPlan] = None

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def instruction_count(self) -> int:
        return litmus_instruction_count(self.threads)

    def describe(self) -> str:
        return (f"seed={self.seed} model={self.model.value} "
                f"spec={self.spec.value} threads={self.n_threads} "
                f"instructions={self.instruction_count()}"
                + (f" inject={self.inject}" if self.inject else "")
                + (f" faults[{self.fault_plan.describe()}]"
                   if self.fault_plan is not None else ""))


@dataclass
class FuzzFailure:
    """A violating case, its shrunk form, and the checker's complaint."""

    case: FuzzCase
    shrunk: FuzzCase
    message: str


@dataclass
class FuzzReport:
    """Outcome of a sweep."""

    cases_run: int = 0
    checks_passed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures


def _apply_injection(system: System, inject: str) -> None:
    if inject == "sc-load-no-drain":
        for core in system.cores:
            core._load_needs_drain = False
    elif inject == "stale-forward":
        for core in system.cores:
            sb = core.sb

            # Over the entry deque, not the buffer: the buffer holding a
            # closure over itself would be a reference cycle.
            def oldest(addr: int, _entries=sb._entries) -> Optional[int]:
                for entry in _entries:
                    if entry.addr == addr:
                        return entry.value
                return None

            sb.forward_value = oldest
    else:
        raise ValueError(f"unknown injection {inject!r}; "
                         f"one of {INJECTIONS}")


#: Most finished runs held for a twin at once; the oldest is dropped
#: first.  A campaign runs a TSO case 6 (``fuzz_sweep``'s defaults) or
#: 12 (E12, verify-campaign) cases before its RMO twin, so 16 holds every
#: twin those campaigns pair.  What bounds it is memory: a held run keeps
#: its whole finished machine (cache arrays, directory store, recorder
#: log) until its twin takes it or it is pushed out, and reference
#: counting frees it then (see ``System.run``).
TWIN_TABLE_SIZE = 16

#: Models whose machine another model builds too (TSO and RMO).
_TWINNED = frozenset(
    model for model in ConsistencyModel
    if sum(canonical_model(other) is canonical_model(model)
           for other in ConsistencyModel) > 1)

#: Canonical case -> (system, recorder) of a finished run that waits
#: for the next case with its key, oldest first.
_twins: Dict[FuzzCase, Tuple[System, ExecutionRecorder]] = {}


def _simulate(case: FuzzCase, config: SystemConfig
              ) -> Tuple[System, ExecutionRecorder]:
    """Build and run ``case``'s machine with a recorder attached."""
    programs = compile_litmus_ops(case.threads, skews=case.skews or None)
    system = System(config, programs, fault_plan=case.fault_plan)
    if case.inject:
        _apply_injection(system, case.inject)
    recorder = ExecutionRecorder.attach(system)
    watchdog = Watchdog(system) if system.fault_plan is not None else None
    system.run(check_invariants=True, max_cycles=FUZZ_MAX_CYCLES,
               watchdog=watchdog)
    return system, recorder


def _machine(case: FuzzCase) -> Tuple[System, ExecutionRecorder]:
    """``case``'s finished machine: its twin's, if the twin ran recently.

    A case is keyed by the machine it builds: the case with its model
    replaced by :func:`~repro.consistency.canonical_model` and without
    its provenance-only seed.  Only models that share their canonical
    model with another are held.  A case whose key is held takes that
    run out of the table, as a shallow copy of its :class:`System`
    carrying the case's own config; otherwise it simulates and is held
    until the next case with its key, or until
    :data:`TWIN_TABLE_SIZE` later held runs push it out.
    """
    config = fuzz_config(case.n_threads, case.model, case.spec)
    if case.model not in _TWINNED:
        return _simulate(case, config)
    key = replace(case, model=canonical_model(case.model), seed=0)
    held = _twins.pop(key, None)
    if held is not None:
        twin, recorder = held
        system = copy.copy(twin)
        system.config = config
        return system, recorder
    system, recorder = _simulate(case, config)
    if len(_twins) >= TWIN_TABLE_SIZE:
        del _twins[next(iter(_twins))]
    _twins[key] = (system, recorder)
    return system, recorder


def execute_case(case: FuzzCase) -> Tuple[System, Dict[str, int]]:
    """Compile, simulate and check one case; return the live system too.

    Callers that only need the checker's report use :func:`run_case`;
    E12 reads the system's fault/retry counters as well.  Fault-injected
    cases run under a liveness :class:`~repro.faults.Watchdog`, and every
    fuzz execution is capped at :data:`FUZZ_MAX_CYCLES` simulated cycles,
    so a hang becomes a diagnosable exception.

    An RMO case builds the same machine as its TSO twin, so the second
    of the two to run takes the first's finished run, while it is still
    held, instead of simulating (:func:`_machine`).  Each case still
    checks the recorded execution against its own model.  The two
    callers then share one machine, recorder and stats registry; that
    is safe because a :class:`System` runs once and the checker only
    reads the recording.
    """
    system, recorder = _machine(case)
    report = check_execution(recorder, model=case.model)
    if report["locations_skipped"]:
        raise RuntimeError(
            "fuzz generator produced duplicate written values; coherence "
            f"and rf checks would be vacuous: {case.describe()}"
        )
    return system, report


def run_case(case: FuzzCase) -> Dict[str, int]:
    """Compile, simulate and check one case against its own model.

    Returns the checker's report on success; raises
    :class:`ConsistencyViolation` when the recorded execution breaks the
    model's axioms, and :class:`RuntimeError` if the generator's
    unique-value guarantee did not hold (the check would be vacuous).
    """
    _, report = execute_case(case)
    return report


def _violation_of(case: FuzzCase) -> Optional[str]:
    """The violation message for ``case``, or None if it checks clean."""
    try:
        run_case(case)
        return None
    except ConsistencyViolation as exc:
        return str(exc)


# ------------------------------------------------------------ shrinking

def _drop_thread(case: FuzzCase, index: int) -> FuzzCase:
    threads = case.threads[:index] + case.threads[index + 1:]
    skews = (case.skews[:index] + case.skews[index + 1:]
             if case.skews else case.skews)
    return replace(case, threads=threads, skews=skews)


def _drop_op(case: FuzzCase, tid: int, opi: int) -> FuzzCase:
    ops = case.threads[tid]
    threads = (case.threads[:tid]
               + (ops[:opi] + ops[opi + 1:],)
               + case.threads[tid + 1:])
    return replace(case, threads=threads)


def shrink_case(case: FuzzCase, max_runs: int = 600,
                skew_retries: int = 3) -> FuzzCase:
    """Greedy fixpoint minimization of a violating case.

    Repeatedly tries dropping whole threads, then single ops, keeping
    any reduction that still violates the model; stops at a fixpoint or
    after ``max_runs`` simulations (the cap is enforced in the oracle
    itself, so no pass can overrun it).  Dropping an op perturbs
    timing, so a reduction that hides the violation under the current
    skews is retried under ``skew_retries`` alternative skew sets
    before being rejected -- the difference between shrinking to a
    litmus-sized reproducer and stalling on timing noise.  The litmus
    IR keeps written values globally unique under any subset, so every
    candidate stays fully checkable.

    Built on the shared delta-debugging engine
    (:func:`repro.verification.minimize.minimize`); the fence
    synthesizer runs the same engine in the opposite direction.
    """
    rng = random.Random(case.seed)
    budget = Budget(max_runs)

    def violates(candidate: FuzzCase) -> bool:
        # The budget is spent here, uniformly for every pass: a query
        # the cap refuses is a query that never runs.
        if not budget.spend():
            return False
        try:
            return _violation_of(candidate) is not None
        except SimulationError:
            # A reduction that deadlocks/times out (possible under a
            # hostile fault plan, where timing shifts with every dropped
            # op) is rejected, not kept: the reproducer must replay the
            # *consistency* violation.
            return False

    def still_fails(candidate: FuzzCase) -> Optional[FuzzCase]:
        """The candidate (possibly reskewed) if it still violates."""
        if violates(candidate):
            return candidate
        for _ in range(skew_retries):
            reskewed = replace(candidate, skews=tuple(
                rng.choice(SKEW_CHOICES)
                for _ in range(candidate.n_threads)))
            if violates(reskewed):
                return reskewed
        return None

    def drop_thread_pass(state: FuzzCase):
        for tid in range(len(state.threads) - 1, -1, -1):
            def edit(s: FuzzCase, tid=tid) -> Optional[FuzzCase]:
                if len(s.threads) <= 1 or tid >= len(s.threads):
                    return None
                return _drop_thread(s, tid)
            yield edit

    def drop_op_pass(state: FuzzCase):
        for tid in range(len(state.threads) - 1, -1, -1):
            for opi in range(len(state.threads[tid]) - 1, -1, -1):
                def edit(s: FuzzCase, tid=tid, opi=opi) -> Optional[FuzzCase]:
                    if tid >= len(s.threads) or opi >= len(s.threads[tid]):
                        return None
                    return _drop_op(s, tid, opi)
                yield edit

    return minimize(case, (drop_thread_pass, drop_op_pass),
                    still_fails, budget)


# ---------------------------------------------------------------- sweep

def fuzz_sweep(
    n_programs: int = 10,
    seed: int = 0,
    n_threads: int = 2,
    ops_per_thread: int = 8,
    models: Sequence[ConsistencyModel] = tuple(ConsistencyModel),
    specs: Sequence[SpeculationMode] = SWEEP_SPECS,
    skew_variants: int = 2,
    inject: Optional[str] = None,
    shrink: bool = True,
    stop_after: Optional[int] = 1,
    fault_plans: Sequence[Optional[FaultPlan]] = (None,),
) -> FuzzReport:
    """Run the full fuzz matrix: programs x models x specs x skews.

    Each of the ``n_programs`` random programs is run under every
    (model, speculation-mode) pair, ``skew_variants`` timing skews, and
    every entry of the ``fault_plans`` axis (default: just the
    fault-free machine), checked against the *same* model the machine
    was configured with.  Violating cases are shrunk (when
    ``shrink``) with the fault plan held fixed; ``stop_after`` bounds
    how many failures are collected before returning early (None: all).
    """
    rng = random.Random(seed)
    report = FuzzReport()
    for prog_index in range(n_programs):
        prog_seed = rng.randrange(2 ** 31)
        threads = random_litmus_ops(n_threads, ops_per_thread,
                                    seed=prog_seed)
        ir = tuple(tuple(ops) for ops in threads)
        skew_sets = [tuple(rng.choice(SKEW_CHOICES)
                           for _ in range(n_threads))
                     for _ in range(skew_variants)]
        for model, spec, skews, plan in product(
                models, specs, skew_sets, fault_plans):
            case = FuzzCase(threads=ir, model=model, spec=spec,
                            skews=skews, seed=prog_seed,
                            inject=inject, fault_plan=plan)
            report.cases_run += 1
            message = _violation_of(case)
            if message is None:
                report.checks_passed += 1
                continue
            shrunk = shrink_case(case) if shrink else case
            report.failures.append(
                FuzzFailure(case=case, shrunk=shrunk, message=message))
            if (stop_after is not None
                    and len(report.failures) >= stop_after):
                return report
    return report


# ----------------------------------------------------------- reproducer

def reproducer_script(case: FuzzCase) -> str:
    """A standalone script that replays ``case`` and exits 1 on violation.

    Written next to a fuzz failure so the bug can be replayed (and
    bisected) without the fuzzing machinery:
    ``PYTHONPATH=src python repro_<seed>.py``.
    """
    lines = [
        '"""Auto-generated consistency-fuzz reproducer.',
        "",
        f"Case: {case.describe()}",
        '"""',
        "",
        "import sys",
        "",
        "from repro.isa.instructions import FenceKind",
        "from repro.verification.checker import ConsistencyViolation",
        "from repro.verification.fuzz import FuzzCase, run_case",
        "from repro.sim.config import ConsistencyModel, SpeculationMode",
        "from repro.workloads.randmix import MemOp",
    ]
    if case.fault_plan is not None:
        lines.append("from repro.faults import FaultPlan")
    lines += [
        "",
        "THREADS = (",
    ]
    for ops in case.threads:
        lines.append("    (")
        for op in ops:
            lines.append(
                f"        MemOp({op.kind!r}, addr={op.addr:#x}, "
                f"value={op.value}, fence=FenceKind.{op.fence.name}, "
                f"cycles={op.cycles}),"
            )
        lines.append("    ),")
    lines += [
        ")",
        "",
        "case = FuzzCase(",
        "    threads=THREADS,",
        f"    model=ConsistencyModel.{case.model.name},",
        f"    spec=SpeculationMode.{case.spec.name},",
        f"    skews={tuple(case.skews)!r},",
        f"    seed={case.seed},",
        f"    inject={case.inject!r},",
    ]
    if case.fault_plan is not None:
        # The dataclass repr is eval-able, so the plan replays exactly.
        lines.append(f"    fault_plan={case.fault_plan!r},")
    lines += [
        ")",
        "",
        "try:",
        "    report = run_case(case)",
        "except ConsistencyViolation as exc:",
        "    print('consistency violation reproduced:')",
        "    print(exc)",
        "    sys.exit(1)",
        "print('no violation:', report)",
        "",
    ]
    return "\n".join(lines)


def write_reproducer(case: FuzzCase, path: str) -> str:
    """Write :func:`reproducer_script` for ``case`` to ``path``."""
    text = reproducer_script(case)
    with open(path, "w") as handle:
        handle.write(text)
    return path
