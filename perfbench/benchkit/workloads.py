"""The benchmark's three workloads, driven through the program's public
entry points only.

* ``paper-tables`` -- E1-E10 at default scale declared into one
  ``SweepScheduler(jobs=2)``, whose pool workers run the program's own
  ``simulate_point``; every point checked with ``Workload.check``,
  every table built with ``Experiment.build``.
* ``mesh-contention`` -- the sharing-bound suite kernels on E15's
  32-core mesh, each under base-SC and IF-SC, run serially in-process
  through ``System(...)`` and ``System.run``.
* ``verify-campaign`` -- seeded 2-thread random litmus programs, each
  under SC/TSO/RMO x 3 speculation modes x 2 skews x {fault-free,
  drop-retry}, through ``verification.fuzz.execute_case``.

Each workload has a ``setup`` (input generation, plan declaration,
point fingerprints) and a ``run_pass`` that does the work a user waits
for inside ``clock`` regions and leaves its bookkeeping (result
fingerprints) outside them.  One *operation* is one grid point, one
table build or one fuzz case; a raise, a failed check or a wrong
fingerprint fails it without stopping the run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.faults.plan import fault_scenarios
from repro.harness import SweepScheduler, all_experiments
from repro.harness.parallel import (
    DEFAULT_MAX_CYCLES,
    result_fingerprint,
    simulate_point,
)
from repro.harness.runner import six_point_configs
from repro.sim.config import (
    ConsistencyModel,
    InterconnectConfig,
    SystemConfig,
    Topology,
)
from repro.system import System, SystemResult
from repro.verification.checker import check_execution
from repro.verification.fuzz import (
    SKEW_CHOICES,
    SWEEP_SPECS,
    FuzzCase,
    execute_case,
)
from repro.workloads.randmix import random_litmus_ops
from repro.workloads.suite import standard_suite

from benchkit.clock import Clock, Probe, SpeedProbe
from benchkit.metrics import Counts
from benchkit.tracing import NO_TRACE, Sampler, Tracer, merge_samples, \
    sample_delta

#: Hex digits of ``result_fingerprint`` kept per operation (64 bits).
FINGERPRINT_DIGITS = 16

#: Default ITIMER_PROF interval.  Profiling timers fire at most once per
#: kernel tick (4 ms at HZ=250), so a shorter interval only looks finer.
SAMPLE_INTERVAL = 0.004

#: Frames the sampler treats as phases of one simulation point.
PHASES = {
    System.__init__.__code__: "build",
    System.run.__code__: "run",
    System.check_swmr.__code__: "check",
    check_execution.__code__: "check",
}


def src_root() -> str:
    """The ``src`` directory the package under test was imported from."""
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def fingerprint(result: SystemResult) -> str:
    return result_fingerprint(result)[:FINGERPRINT_DIGITS]


def simulate(config, programs, initial_memory, tracer) -> SystemResult:
    """Build and run one fault-free point under the harness's
    simulated-time cap, with a span around each step."""
    with tracer.span("system.build", sampled=True):
        system = System(config, programs, initial_memory)
    with tracer.span("system.run", sampled=True):
        return system.run(max_cycles=DEFAULT_MAX_CYCLES)


@dataclass
class PassResult:
    """What one pass of a workload did, for checking and metrics."""

    ops: int = 0
    #: operation key -> why it failed
    errors: Dict[str, str] = field(default_factory=dict)
    #: operation key -> result fingerprint, for operations with a result
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: simulated instructions retired over every point, each once
    instructions: int = 0
    #: exact per-layer counts (traced passes only)
    counts: Optional[Counts] = None
    #: sampler counts of the points this pass simulated (traced passes)
    samples: Dict = field(default_factory=dict)
    #: values a workload adds to the per-layer metrics
    layer_inputs: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def for_tracer(cls, tracer) -> "PassResult":
        return cls(counts=Counts() if tracer.traced else None)

    def fail(self, key: str, why: str) -> None:
        self.errors.setdefault(key, why)

    def record(self, key: str, result: SystemResult) -> str:
        """Fingerprint and count one simulated point's result."""
        self.fingerprints[key] = fingerprint(result)
        self.instructions += result.total_instructions()
        if self.counts is not None:
            self.counts.add(result)
        return self.fingerprints[key]


# ------------------------------------------------------------ pool workers

@dataclass
class PointOutcome:
    """A pool worker's answer: a result or the error, plus the worker's
    host-speed probes (untraced) or its trace (traced)."""

    result: Optional[SystemResult] = None
    error: Optional[str] = None
    probes: List[Probe] = field(default_factory=list)
    trace: Optional[Dict] = None


#: The host-speed probe of a pool worker process, started on its first
#: untraced point and running until the worker exits.
_worker_speed: Optional[SpeedProbe] = None


def run_point(config, programs, initial_memory, fault_plan=None,
              node_plan=None, tracer=NO_TRACE):
    """``SweepScheduler`` worker: the program's own ``simulate_point``,
    with a raise turned into an outcome, so a failing point costs one
    operation, not the sweep.  Untraced, the worker probes its host's
    speed while the point runs (see :mod:`benchkit.clock`)."""
    global _worker_speed
    speed = None
    if not tracer.traced:
        if _worker_speed is None or not _worker_speed.running:
            _worker_speed = SpeedProbe()
            _worker_speed.start()
        speed = _worker_speed
    clock = Clock(speed)
    try:
        with clock, tracer.span("harness.point", sampled=True):
            result, _seconds = simulate_point(config, programs,
                                              initial_memory, fault_plan,
                                              node_plan)
        outcome = PointOutcome(result=result)
    except Exception as exc:
        outcome = PointOutcome(error=describe(exc))
    outcome.probes = clock.probes
    return outcome, clock.wall


#: The sampler of a pool worker process.  Signal handlers and profiling
#: timers belong to the process, so each worker keeps one, started on
#: its first traced point and running until the worker exits.
_worker_sampler: Optional[Sampler] = None


def traced_point(config, programs, initial_memory, fault_plan=None,
                 node_plan=None):
    """``SweepScheduler`` worker of the traced run: :func:`run_point`
    plus the point's spans and samples, shipped back in the outcome."""
    global _worker_sampler
    if _worker_sampler is None or not _worker_sampler.running:
        _worker_sampler = Sampler(src_root(), SAMPLE_INTERVAL, PHASES)
        _worker_sampler.start()
    before = _worker_sampler.snapshot()
    tracer = Tracer(_worker_sampler)
    outcome, seconds = run_point(config, programs, initial_memory,
                                 fault_plan, node_plan, tracer=tracer)
    outcome.trace = {"spans": tracer.spans, "seconds": tracer.seconds,
                     "samples": sample_delta(_worker_sampler.snapshot(),
                                             before)}
    return outcome, seconds


def stop_worker_sampler() -> None:
    """Stop a worker sampler started in this process (a serial sweep
    runs its worker in-process)."""
    if _worker_sampler is not None and _worker_sampler.running:
        _worker_sampler.stop()


# ---------------------------------------------------------------- workloads

#: Experiment -> plan/build keyword arguments of the tiny size.
TINY_TABLES = {"E1": dict(n_cores=4, scale=0.3), "E4": {}}

#: Pool workers of the paper-tables sweep: one per CPU of the 2-CPU
#: host the benchmark is sized for, which leaves the parent process
#: competing with its own workers, as under ``run_experiments.py``.
SWEEP_JOBS = 2


class PaperTables:
    """E1-E10 through one deduplicating ``SweepScheduler``."""

    name = "paper-tables"
    #: inputs do not depend on the seed
    seeded = False
    #: points run in pool workers, which sample themselves
    in_process = False

    def __init__(self, tiny: bool = False):
        self.size = "tiny" if tiny else "full"
        self.tables = (TINY_TABLES if tiny
                       else {f"E{i}": {} for i in range(1, 11)})
        #: host seconds of one pass, set-up included, on a 2-CPU host
        self.pass_seconds = 1.5 if tiny else 10.0

    def setup(self, seed: int, tracer=NO_TRACE):
        registry = all_experiments()
        worker = run_point if tracer is NO_TRACE else traced_point
        with tracer.span("harness.plan"):
            scheduler = SweepScheduler(jobs=SWEEP_JOBS, worker=worker)
            grids = {}
            for exp_id, kwargs in self.tables.items():
                specs = registry[exp_id].plan(**kwargs)
                for spec in specs:
                    # Checked below with Workload.check, so a wrong
                    # answer fails one operation instead of the sweep.
                    spec.check = False
                scheduler.add(exp_id, specs)
                grids[exp_id] = specs
        return scheduler, grids

    def run_pass(self, inputs, clock, tracer=NO_TRACE) -> PassResult:
        scheduler, grids = inputs
        out = PassResult.for_tracer(tracer)
        try:
            with clock.remote(), tracer.span("harness.sweep") as sweep_span:
                scheduler.run()
            outcomes = {exp_id: scheduler.results_for(exp_id)
                        for exp_id in grids}
            unique = {id(outcome): outcome
                      for by_label in outcomes.values()
                      for outcome in by_label.values()}
            clock.add_remote([probe for outcome in unique.values()
                              for probe in outcome.probes], scheduler.jobs)
        except Exception as exc:
            for exp_id, specs in grids.items():
                for spec in specs:
                    out.ops += 1
                    out.fail(f"{exp_id}/{spec.label}", describe(exc))
            return out
        finally:
            stop_worker_sampler()
        with clock:
            self._check_and_build(grids, outcomes, out, tracer)
        declared = sum(len(specs) for specs in grids.values())
        report = scheduler.last_report
        out.layer_inputs = {
            "dedup_ratio": scheduler.duplicate_hits / declared,
            "pool_overhead_s": (report.wall_seconds
                                - report.serial_seconds / report.jobs),
        }
        seen: Dict[int, str] = {}
        for exp_id, specs in grids.items():
            for spec in specs:
                key = f"{exp_id}/{spec.label}"
                outcome = outcomes[exp_id][spec.label]
                if outcome.result is None:
                    continue
                if id(outcome) in seen:  # deduplicated across grids
                    out.fingerprints[key] = seen[id(outcome)]
                    continue
                seen[id(outcome)] = out.record(key, outcome.result)
                if outcome.trace is not None:
                    tracer.adopt(outcome.trace["spans"], sweep_span)
                    tracer.seconds += outcome.trace["seconds"]
                    merge_samples(out.samples, outcome.trace["samples"])
        return out

    def _check_and_build(self, grids, outcomes, out: PassResult,
                         tracer) -> None:
        """``Workload.check`` every point, then build each table whose
        grid passed."""
        registry = all_experiments()
        for exp_id, specs in grids.items():
            grid_ok = True
            for spec in specs:
                key = f"{exp_id}/{spec.label}"
                outcome = outcomes[exp_id][spec.label]
                out.ops += 1
                if outcome.error is not None:
                    out.fail(key, outcome.error)
                    grid_ok = False
                    continue
                try:
                    with tracer.span("harness.validate"):
                        spec.workload.check(outcome.result)
                except Exception as exc:
                    out.fail(key, describe(exc))
                    grid_ok = False
            if not grid_ok:
                continue  # no table from a partial grid
            out.ops += 1
            try:
                with tracer.span("harness.tables"):
                    registry[exp_id].build(
                        {label: o.result
                         for label, o in outcomes[exp_id].items()},
                        **self.tables[exp_id])
            except Exception as exc:
                out.fail(f"{exp_id}/table", describe(exc))


#: The sharing-bound suite kernels mesh-contention runs.
MESH_KERNELS = ("locks-tas", "locks-partitioned", "producer-consumer",
                "barrier-reduction")
MESH_CONFIGS = ("base-sc", "if-sc")


def mesh_config(n_cores: int) -> SystemConfig:
    """E15's large-machine point: 2D mesh, hop latency 4, 8 homes."""
    return replace(SystemConfig(n_cores=n_cores, n_homes=8),
                   interconnect=InterconnectConfig(topology=Topology.MESH,
                                                   mesh_hop_latency=4))


class MeshContention:
    """Sharing-bound kernels on the 32-core mesh, serially in-process."""

    name = "mesh-contention"
    seeded = False
    in_process = True

    def __init__(self, tiny: bool = False):
        self.size = "tiny" if tiny else "full"
        self.n_cores, self.scale = (8, 0.1) if tiny else (32, 1.0)
        self.pass_seconds = 0.25 if tiny else 10.0

    def setup(self, seed: int, tracer=NO_TRACE):
        with tracer.span("harness.plan"):
            suite = standard_suite(self.n_cores, self.scale)
            configs = six_point_configs(mesh_config(self.n_cores))
            return [(f"{kernel}/{name}", configs[name], suite[kernel])
                    for kernel in MESH_KERNELS for name in MESH_CONFIGS]

    def run_pass(self, points, clock, tracer=NO_TRACE) -> PassResult:
        out = PassResult.for_tracer(tracer)
        for key, config, workload in points:
            out.ops += 1
            try:
                with clock:
                    result = simulate(config, workload.programs,
                                      workload.initial_memory, tracer)
                    with tracer.span("harness.validate"):
                        workload.check(result)
            except Exception as exc:
                out.fail(key, describe(exc))
                continue
            out.record(key, result)
        return out


#: Operations per thread of each random litmus program (the default of
#: ``fuzz_sweep``, which E11 runs).
LITMUS_OPS = 8


def campaign_cases(seed: int, n_programs: int):
    """``(key, FuzzCase)`` for every run of a seeded campaign.

    Shaped like E11/E12: each 2-thread program runs under every model x
    speculation mode x 2 drawn skews, fault-free and under E12's
    ``drop-retry`` plan reseeded per run the way E12 reseeds it."""
    rng = random.Random(seed)
    drop_retry = fault_scenarios(seed=seed)["drop-retry"]
    cases = []
    for index in range(n_programs):
        prog_seed = rng.randrange(2 ** 31)
        threads = tuple(tuple(ops) for ops in
                        random_litmus_ops(2, LITMUS_OPS, seed=prog_seed))
        skew_sets = [tuple(rng.choice(SKEW_CHOICES) for _ in range(2))
                     for _ in range(2)]
        for model in ConsistencyModel:
            for si, spec in enumerate(SWEEP_SPECS):
                plans = {"clean": None,
                         "drop-retry": replace(
                             drop_retry,
                             seed=(prog_seed * 31 + si) & 0x7FFFFFFF)}
                for ki, skews in enumerate(skew_sets):
                    for plan_name, plan in plans.items():
                        key = (f"p{index}/{model.value}/{spec.value}/"
                               f"k{ki}/{plan_name}")
                        cases.append((key, FuzzCase(
                            threads=threads, model=model, spec=spec,
                            skews=skews, seed=prog_seed,
                            fault_plan=plan)))
    return cases


class VerifyCampaign:
    """Consistency fuzzing shaped like E11/E12, one case at a time."""

    name = "verify-campaign"
    seeded = True
    in_process = True

    def __init__(self, tiny: bool = False):
        self.size = "tiny" if tiny else "full"
        # 80 programs keep the seed-to-seed spread of the work per pass
        # (simulated instructions) near 2.5%, below the host's noise.
        self.n_programs = 2 if tiny else 80
        self.pass_seconds = 0.25 if tiny else 10.0

    def setup(self, seed: int, tracer=NO_TRACE):
        with tracer.span("harness.plan"):
            return campaign_cases(seed, self.n_programs)

    def run_pass(self, cases, clock, tracer=NO_TRACE) -> PassResult:
        out = PassResult.for_tracer(tracer)
        for key, case in cases:
            out.ops += 1
            try:
                with clock, tracer.span("verification.case", sampled=True):
                    system, _report = execute_case(case)
            except Exception as exc:
                out.fail(key, describe(exc))
                continue
            out.record(key, SystemResult(system))
        return out


WORKLOADS = {w.name: w for w in (PaperTables, MeshContention, VerifyCampaign)}
