"""The reproduced experiments, one declared run grid per table/figure.

Each experiment is an :class:`Experiment` with two phases:

* ``plan(**kwargs)`` declares the run grid -- a list of named
  :class:`~repro.harness.parallel.RunSpec` points, each an independent
  ``(SystemConfig, Workload)`` simulation;
* ``build(results, **kwargs)`` consumes a ``label -> SystemResult``
  mapping and assembles the :class:`ExperimentResult` whose rows
  regenerate the paper artifact's data (``render()`` prints the table).

Splitting the phases lets one shared
:class:`~repro.harness.parallel.SweepScheduler` deduplicate identical
points across experiments (the six-point grids repeat ``base-rmo`` etc.
constantly) and execute unique points concurrently.  Calling an
experiment directly -- ``e2_transparency(n_cores=8)`` -- still works and
runs its own grid, serially by default (``jobs=`` or the ``REPRO_JOBS``
environment variable fan it out).  Benchmarks in ``benchmarks/`` call
these and assert the qualitative shape; EXPERIMENTS.md records the
measured numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.breakdown import system_breakdown
from repro.analysis.tables import ascii_table
from repro.baselines.per_store import PerStoreDesign, coverage_at_depth
from repro.core.storage import StorageModel
from repro.cpu.core import StallCause
from repro.harness.parallel import RunSpec, execute_specs
from repro.harness.runner import six_point_configs
from repro.sim.config import (
    CacheConfig,
    ConsistencyModel,
    SpeculationMode,
    SystemConfig,
    ViolationGranularity,
)
from repro.sim.stats import Histogram
from repro.system import SystemResult
from repro.workloads import randmix
from repro.workloads.suite import SUITE_NAMES, standard_suite

#: Result mapping handed to every experiment's ``build`` phase.
Results = Mapping[str, SystemResult]


@dataclass
class ExperimentResult:
    """Rows + metadata for one reproduced table/figure."""

    exp_id: str
    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: str = ""
    data: Dict = field(default_factory=dict)

    def render(self) -> str:
        table = ascii_table(self.headers, self.rows,
                            title=f"[{self.exp_id}] {self.title}")
        if self.notes:
            table += f"\n  note: {self.notes}"
        return table

    def to_csv(self) -> str:
        """The table as CSV (for plotting outside the repo)."""
        from repro.analysis.tables import to_csv
        return to_csv(self.headers, self.rows)

    def write_csv(self, directory: str) -> str:
        """Write ``<exp_id>.csv`` into ``directory``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.exp_id.lower()}.csv")
        with open(path, "w") as handle:
            handle.write(self.to_csv())
        return path


class Experiment:
    """One reproduced artifact: a declared run grid plus a result builder.

    Instances are callable with the experiment's historical signature
    (``e2_transparency(n_cores=4, scale=0.3)``); the call plans the
    grid, executes it (serially unless ``jobs``/``REPRO_JOBS`` says
    otherwise), and builds the table.  ``plan``/``build`` stay exposed
    for the shared-scheduler path in ``examples/run_experiments.py``.
    """

    def __init__(self, exp_id: str,
                 plan: Callable[..., List[RunSpec]],
                 build: Callable[..., ExperimentResult]):
        self.exp_id = exp_id
        self.plan = plan
        self.build = build
        self.__name__ = build.__name__.replace("_build", "")
        self.__doc__ = build.__doc__

    def __call__(self, jobs: Optional[int] = None,
                 **kwargs) -> ExperimentResult:
        """Plan, run and build the table; ``jobs=None`` reads
        ``REPRO_JOBS``, and runs serially when it is unset."""
        if jobs is None:
            jobs = _env_jobs()
        results = execute_specs(self.plan(**kwargs), jobs=jobs)
        return self.build(results, **kwargs)

    def __repr__(self) -> str:
        return f"<Experiment {self.exp_id}>"


def _env_jobs() -> int:
    """``REPRO_JOBS`` as a worker count: 1 when unset or empty."""
    value = os.environ.get("REPRO_JOBS", "")
    if not value:
        return 1
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(
            f"REPRO_JOBS must be an integer >= 1, got {value!r}")
    return jobs


def _default_config(n_cores: int) -> SystemConfig:
    return SystemConfig(n_cores=n_cores)


# --------------------------------------------------------------------- E1

def e1_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    specs = []
    for name, workload in standard_suite(n_cores, scale).items():
        for model in ConsistencyModel:
            specs.append(RunSpec(
                label=f"{name}|{model.value}",
                config=_default_config(n_cores).with_consistency(model),
                workload=workload))
    return specs


def e1_build(results: Results, n_cores: int = 8,
             scale: float = 1.0) -> ExperimentResult:
    """Fig.1-style: where conventional implementations spend their time.

    For each workload x {SC, TSO, RMO}: fraction of core-cycles in busy
    work, memory stalls, and ordering stalls (fence/atomic/SC-wait).
    Claim reproduced: SC pays heavily everywhere; TSO and even RMO still
    pay at fences and atomics.
    """
    result = ExperimentResult(
        exp_id="E1",
        title="Ordering-stall time breakdown (conventional baselines)",
        headers=["workload", "model", "busy%", "memory%", "fence%",
                 "atomic%", "sc-wait%", "ordering% (total)"],
    )
    for name in SUITE_NAMES:
        for model in ConsistencyModel:
            run = results[f"{name}|{model.value}"]
            bd = system_breakdown(run)
            result.rows.append([
                name, model.value,
                round(100 * bd.fraction("busy"), 1),
                round(100 * bd.fraction(StallCause.MEMORY.value), 1),
                round(100 * bd.fraction(StallCause.FENCE.value), 1),
                round(100 * bd.fraction(StallCause.ATOMIC.value), 1),
                round(100 * bd.fraction(StallCause.SC_ORDER.value), 1),
                round(100 * bd.ordering_fraction, 1),
            ])
            result.data[(name, model.value)] = bd
    return result


# --------------------------------------------------------------------- E2

_E2_POINTS = ("base-sc", "base-tso", "base-rmo", "if-sc", "if-tso", "if-rmo")


def e2_plan(n_cores: int = 8, scale: float = 1.0,
            mode: SpeculationMode = SpeculationMode.ON_DEMAND
            ) -> List[RunSpec]:
    specs = []
    grid = six_point_configs(_default_config(n_cores), mode)
    for name, workload in standard_suite(n_cores, scale).items():
        for label, cfg in grid.items():
            specs.append(RunSpec(f"{name}|{label}", cfg, workload))
    return specs


def e2_build(results: Results, n_cores: int = 8, scale: float = 1.0,
             mode: SpeculationMode = SpeculationMode.ON_DEMAND
             ) -> ExperimentResult:
    """The headline figure: InvisiFence makes ordering transparent.

    Runtime of {SC, TSO, RMO} x {base, IF} normalised to base-RMO
    (lower is better).  Claims reproduced: base-SC is clearly slower
    than base-RMO; all three IF variants land within a few percent of
    one another and at (or below) base-RMO.
    """
    result = ExperimentResult(
        exp_id="E2",
        title="Normalised runtime (base-RMO = 1.00, lower is better)",
        headers=["workload", "base-sc", "base-tso", "base-rmo",
                 "if-sc", "if-tso", "if-rmo"],
    )
    for name in SUITE_NAMES:
        cycles = {label: results[f"{name}|{label}"].cycles
                  for label in _E2_POINTS}
        baseline = cycles["base-rmo"]
        result.rows.append(
            [name] + [round(cycles[label] / baseline, 3)
                      for label in _E2_POINTS])
        result.data[name] = cycles
    return result


# --------------------------------------------------------------------- E3

_E3_MODES = (SpeculationMode.ON_DEMAND, SpeculationMode.CONTINUOUS)


def e3_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    specs = []
    for name, workload in standard_suite(n_cores, scale).items():
        for mode in _E3_MODES:
            specs.append(RunSpec(
                label=f"{name}|{mode.value}",
                config=_default_config(n_cores).with_speculation(mode),
                workload=workload))
    return specs


def e3_build(results: Results, n_cores: int = 8,
             scale: float = 1.0) -> ExperimentResult:
    """On-demand vs continuous speculation.

    Claims reproduced: both modes deliver the transparency win;
    on-demand speculates less (fewer episodes, fewer violations),
    continuous decouples enforcement (more episodes, more exposure).
    """
    result = ExperimentResult(
        exp_id="E3",
        title="Speculation modes: on-demand vs continuous",
        headers=["workload", "mode", "cycles", "episodes", "commits",
                 "violations", "wasted-instr"],
    )
    for name in SUITE_NAMES:
        for mode in _E3_MODES:
            run = results[f"{name}|{mode.value}"]
            episodes = int(run.stats.sum(
                f"spec.{i}.episodes" for i in range(n_cores)))
            wasted = int(run.stats.sum(
                f"spec.{i}.wasted_instructions" for i in range(n_cores)))
            result.rows.append([name, mode.value, run.cycles, episodes,
                                run.commits(), run.violations(), wasted])
            result.data[(name, mode.value)] = run
    return result


# ------------------------------------------------------------- MEM grid

#: Sharing-heavy subset of the suite used by the MEM grid: the
#: fence-bound communication workload plus both barrier kernels, whose
#: runtime is dominated by coherence traffic rather than local compute.
_MEM_WORKLOADS = ("producer-consumer", "barrier-stencil", "barrier-reduction")


def mem_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    """Coherence-heavy grid: the sharing-bound workloads crossed with
    the E2 six-point configs plus the E3 speculation modes.

    Message dispatch, block transfers, LRU and store-buffer forwarding
    run hot here.  The engine goldens and the copy-elision tests pin its
    2-core points; ``examples/run_bench.py`` profiles its quick points.
    Not a reproduced figure, so there is no ``mem_build``.
    """
    suite = standard_suite(n_cores, scale)
    grid = six_point_configs(_default_config(n_cores), SpeculationMode.ON_DEMAND)
    specs = []
    for name in _MEM_WORKLOADS:
        workload = suite[name]
        for label, cfg in grid.items():
            specs.append(RunSpec(f"{name}|{label}", cfg, workload))
        for mode in _E3_MODES:
            specs.append(RunSpec(
                f"{name}|{mode.value}",
                _default_config(n_cores).with_speculation(mode),
                workload))
    return specs


# --------------------------------------------------------------------- E4

_E4_L1_SIZES_KB = (2, 4, 16, 64)


def _e4_sharing_workload(n_cores: int):
    return randmix.read_side_false_sharing(n_readers=n_cores - 1,
                                           iterations=40)


def _e4_capacity_workload(n_cores: int):
    return randmix.random_mix(n_cores, n_instructions=300, seed=7,
                              private_words=512, shared_words=0,
                              pct_store=0.5, pct_load=0.2, pct_fence=0.1,
                              pct_atomic=0.0)


def e4_plan(n_cores: int = 4) -> List[RunSpec]:
    specs = []
    # (a) granularity ablation on read-side false sharing
    wl = _e4_sharing_workload(n_cores)
    for granularity in ViolationGranularity:
        config = _default_config(n_cores).with_speculation(
            SpeculationMode.ON_DEMAND, granularity=granularity)
        specs.append(RunSpec(f"granularity|{granularity.value}", config, wl))
    # (b) L1-size sweep on a store-heavy workload (capacity pressure)
    wl = _e4_capacity_workload(n_cores)
    for size_kb in _E4_L1_SIZES_KB:
        l1 = CacheConfig(size_bytes=size_kb * 1024, assoc=4, block_bytes=64)
        config = SystemConfig(n_cores=n_cores, l1=l1).with_speculation(
            SpeculationMode.ON_DEMAND)
        specs.append(RunSpec(f"l1|{size_kb}", config, wl))
    return specs


def e4_build(results: Results, n_cores: int = 4) -> ExperimentResult:
    """Violation characterisation: sharing conflicts, false sharing,
    and L1-capacity pressure.

    Claims reproduced: (a) false sharing causes block-granularity aborts
    that the idealised word oracle avoids; (b) shrinking the L1 converts
    speculative footprint into capacity-eviction violations.
    """
    result = ExperimentResult(
        exp_id="E4",
        title="Violation sources: granularity and capacity",
        headers=["workload", "variant", "cycles", "violations",
                 "viol-external", "viol-capacity"],
    )

    def viol_by(run, reason: str) -> int:
        return int(run.stats.sum(
            f"spec.{i}.violations.{reason}" for i in range(n_cores)))

    for granularity in ViolationGranularity:
        run = results[f"granularity|{granularity.value}"]
        result.rows.append([
            "read-side-false-sharing", f"granularity={granularity.value}",
            run.cycles, run.violations(),
            viol_by(run, "external-invalidation"),
            viol_by(run, "capacity-eviction"),
        ])
        result.data[("granularity", granularity.value)] = run
    for size_kb in _E4_L1_SIZES_KB:
        run = results[f"l1|{size_kb}"]
        result.rows.append([
            "random-mix", f"L1={size_kb}KB", run.cycles, run.violations(),
            viol_by(run, "external-invalidation"),
            viol_by(run, "capacity-eviction"),
        ])
        result.data[("l1_kb", size_kb)] = run
    return result


# --------------------------------------------------------------------- E5

_E5_DENSITIES = (1, 2, 4, 8, 16)
_E5_PENALTIES = (0, 8, 32, 128)


def _e5_conflict_workload(n_cores: int):
    return randmix.false_sharing(min(n_cores, 8), iterations=40,
                                 fence_every=2)


def e5_plan(n_cores: int = 8) -> List[RunSpec]:
    specs = []
    for ops_per_fence in _E5_DENSITIES:
        wl = randmix.fence_density_sweep_program(
            n_cores, work_units=60, ops_per_fence=ops_per_fence)
        specs.append(RunSpec(f"density|{ops_per_fence}|base",
                             _default_config(n_cores), wl))
        specs.append(RunSpec(
            f"density|{ops_per_fence}|if",
            _default_config(n_cores).with_speculation(
                SpeculationMode.ON_DEMAND), wl))
    conflict_cores = min(n_cores, 8)
    wl = _e5_conflict_workload(n_cores)
    specs.append(RunSpec("penalty|base", _default_config(conflict_cores), wl))
    for penalty in _E5_PENALTIES:
        config = _default_config(conflict_cores).with_speculation(
            SpeculationMode.ON_DEMAND, rollback_penalty=penalty)
        specs.append(RunSpec(f"penalty|{penalty}", config, wl))
    return specs


def e5_build(results: Results, n_cores: int = 8) -> ExperimentResult:
    """Sensitivity: rollback penalty and fence density.

    Claims reproduced: the speedup is robust across rollback penalties
    when violations are rare, and grows with fence density (the more
    ordering the baseline pays for, the more InvisiFence recovers).
    """
    result = ExperimentResult(
        exp_id="E5",
        title="Sensitivity to rollback penalty and fence density",
        headers=["sweep", "point", "base cycles", "if cycles", "speedup"],
    )
    for ops_per_fence in _E5_DENSITIES:
        base = results[f"density|{ops_per_fence}|base"]
        invisi = results[f"density|{ops_per_fence}|if"]
        result.rows.append([
            "fence-density", f"1/{ops_per_fence} ops",
            base.cycles, invisi.cycles,
            round(base.cycles / invisi.cycles, 3),
        ])
        result.data[("density", ops_per_fence)] = (base, invisi)
    base = results["penalty|base"]
    for penalty in _E5_PENALTIES:
        run = results[f"penalty|{penalty}"]
        result.rows.append([
            "rollback-penalty", f"{penalty} cycles",
            base.cycles, run.cycles,
            round(base.cycles / run.cycles, 3),
        ])
        result.data[("penalty", penalty)] = run
    return result


# --------------------------------------------------------------------- E6

def e6_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    # Measured episode depths: how deep does real speculation get?
    # Continuous mode is the probe -- its checkpoint-to-checkpoint
    # windows are what a per-store design would have to buffer.  (These
    # points coincide with E3's continuous runs, so a shared scheduler
    # simulates them once for both experiments.)
    specs = []
    for name, workload in standard_suite(n_cores, scale).items():
        config = _default_config(n_cores).with_speculation(
            SpeculationMode.CONTINUOUS)
        specs.append(RunSpec(f"continuous|{name}", config, workload))
    return specs


def e6_build(results: Results, n_cores: int = 8,
             scale: float = 1.0) -> ExperimentResult:
    """The ~1 KB storage claim, against per-store designs.

    Per-store storage grows linearly with supported depth; InvisiFence
    is constant (2 bits/L1 block + checkpoint ~= 1 KB for a 64 KB L1) and
    its effective capacity -- measured episode footprints -- is covered
    by construction.
    """
    l1 = CacheConfig()
    model = StorageModel(l1)
    result = ExperimentResult(
        exp_id="E6",
        title="Speculative-state storage vs supported depth (bytes/core)",
        headers=["supported depth (stores)", "per-store design (B)",
                 "InvisiFence (B)", "per-store / InvisiFence"],
        notes=(f"InvisiFence breakdown: {model.breakdown_bits()} -> "
               f"{model.total_bytes:.0f} B total"),
    )
    invisi_bytes = model.total_bytes
    for depth in (8, 16, 32, 64, 128, 256, 512):
        per_store = PerStoreDesign(depth).storage_bytes
        result.rows.append([
            depth, round(per_store, 0), round(invisi_bytes, 0),
            round(per_store / invisi_bytes, 2),
        ])
    merged = Histogram("episode_stores.merged")
    for name in SUITE_NAMES:
        run = results[f"continuous|{name}"]
        for i in range(n_cores):
            hist = run.stats.get(f"spec.{i}.episode_stores")
            for edge, count in hist.items():
                merged.add(edge, count)
    result.data["episode_stores"] = merged
    result.data["invisifence_bytes"] = invisi_bytes
    if merged.count:
        result.notes += (
            f"; measured episodes: mean {merged.mean:.1f} spec stores, "
            f"p99 <= {merged.percentile(0.99)}, depth-8 per-store coverage "
            f"{100 * coverage_at_depth(merged, 8):.0f}%"
        )
    return result


# --------------------------------------------------------------------- E7

_E7_WORKLOADS = ("producer-consumer", "locks-ticket")


def e7_plan(scale: float = 1.0,
            core_counts: Sequence[int] = (2, 4, 8),
            arbitration_latency: int = 40) -> List[RunSpec]:
    specs = []
    for n in core_counts:
        suite = standard_suite(n, scale)
        for name in _E7_WORKLOADS:
            workload = suite[name]
            specs.append(RunSpec(
                f"{n}|{name}|local",
                _default_config(n).with_speculation(SpeculationMode.ON_DEMAND),
                workload))
            specs.append(RunSpec(
                f"{n}|{name}|arb",
                _default_config(n).with_speculation(
                    SpeculationMode.ON_DEMAND, commit_arbitration=True,
                    arbitration_latency=arbitration_latency),
                workload))
    return specs


def e7_build(results: Results, scale: float = 1.0,
             core_counts: Sequence[int] = (2, 4, 8),
             arbitration_latency: int = 40) -> ExperimentResult:
    """Local flash commit vs chunk-style global commit arbitration.

    Claim reproduced: arbitration extends the vulnerability window and
    serialises commits, costing cycles and extra violations -- and the
    gap grows with core count.
    """
    result = ExperimentResult(
        exp_id="E7",
        title="Commit: InvisiFence local vs global arbitration",
        headers=["cores", "workload", "local cycles", "arbitrated cycles",
                 "slowdown", "local viol", "arb viol"],
    )
    for n in core_counts:
        for name in _E7_WORKLOADS:
            local = results[f"{n}|{name}|local"]
            arb = results[f"{n}|{name}|arb"]
            result.rows.append([
                n, name, local.cycles, arb.cycles,
                round(arb.cycles / local.cycles, 3),
                local.violations(), arb.violations(),
            ])
            result.data[(n, name)] = (local, arb)
    return result


# --------------------------------------------------------------------- E8

_E8_ENTRIES = (1, 2, 4, 8, 16, 32)
_E8_WORKLOAD = "producer-consumer"


def e8_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    specs = []
    workload = standard_suite(n_cores, scale)[_E8_WORKLOAD]
    for entries in _E8_ENTRIES:
        base_cfg = SystemConfig(n_cores=n_cores).with_consistency(
            ConsistencyModel.TSO)
        base_cfg = replace(base_cfg, core=replace(
            base_cfg.core, store_buffer_entries=entries))
        specs.append(RunSpec(f"sb{entries}|base", base_cfg, workload))
        specs.append(RunSpec(
            f"sb{entries}|if",
            base_cfg.with_speculation(SpeculationMode.ON_DEMAND), workload))
    return specs


def e8_build(results: Results, n_cores: int = 8,
             scale: float = 1.0) -> ExperimentResult:
    """Store-buffer-depth sensitivity: base TSO vs InvisiFence.

    Claim reproduced: the conventional machine wants deeper buffers
    (fence drains hurt more when the buffer backs up), while InvisiFence
    is largely insensitive -- ordering is off the critical path.
    """
    result = ExperimentResult(
        exp_id="E8",
        title="Runtime vs store-buffer entries (TSO)",
        headers=["sb entries", "workload", "base cycles", "if cycles",
                 "base/if"],
    )
    for entries in _E8_ENTRIES:
        base = results[f"sb{entries}|base"]
        invisi = results[f"sb{entries}|if"]
        result.rows.append([
            entries, _E8_WORKLOAD, base.cycles, invisi.cycles,
            round(base.cycles / invisi.cycles, 3),
        ])
        result.data[entries] = (base, invisi)
    return result


# --------------------------------------------------------------------- E9

_E9_WORKLOADS = ("locks-ticket", "barrier-stencil")


def e9_plan(core_counts: Sequence[int] = (2, 4, 8, 16),
            scale: float = 1.0) -> List[RunSpec]:
    specs = []
    for n in core_counts:
        suite = standard_suite(n, scale)
        for name in _E9_WORKLOADS:
            workload = suite[name]
            specs.append(RunSpec(
                f"{n}|{name}|base-sc",
                _default_config(n).with_consistency(ConsistencyModel.SC),
                workload))
            specs.append(RunSpec(
                f"{n}|{name}|base-rmo",
                _default_config(n).with_consistency(ConsistencyModel.RMO),
                workload))
            specs.append(RunSpec(
                f"{n}|{name}|if-sc",
                _default_config(n).with_consistency(ConsistencyModel.SC)
                .with_speculation(SpeculationMode.ON_DEMAND),
                workload))
    return specs


def e9_build(results: Results,
             core_counts: Sequence[int] = (2, 4, 8, 16),
             scale: float = 1.0) -> ExperimentResult:
    """Does the transparency win persist as the machine grows?"""
    result = ExperimentResult(
        exp_id="E9",
        title="Scaling: base-SC / base-RMO / IF-SC runtime by core count",
        headers=["cores", "workload", "base-sc", "base-rmo", "if-sc",
                 "if-sc vs base-sc speedup"],
    )
    for n in core_counts:
        for name in _E9_WORKLOADS:
            base_sc = results[f"{n}|{name}|base-sc"]
            base_rmo = results[f"{n}|{name}|base-rmo"]
            if_sc = results[f"{n}|{name}|if-sc"]
            result.rows.append([
                n, name, base_sc.cycles, base_rmo.cycles, if_sc.cycles,
                round(base_sc.cycles / if_sc.cycles, 3),
            ])
            result.data[(n, name)] = (base_sc, base_rmo, if_sc)
    return result


# -------------------------------------------------------------------- E10

def e10_plan() -> List[RunSpec]:
    return []


def e10_build(results: Results = None) -> ExperimentResult:
    """Table-2-style system parameters plus simulator characterisation."""
    config = SystemConfig()
    result = ExperimentResult(
        exp_id="E10",
        title="Simulated system parameters",
        headers=["parameter", "value"],
    )
    storage = StorageModel(config.l1)
    result.rows = [
        ["cores", f"{config.n_cores} in-order, single-issue"],
        ["store buffer", f"{config.core.store_buffer_entries} entries, FIFO, "
                         "forwarding"],
        ["L1 D-cache", f"{config.l1.size_bytes // 1024} KB, "
                       f"{config.l1.assoc}-way, {config.l1.block_bytes} B blocks, "
                       f"{config.l1.hit_latency}-cycle hit"],
        ["coherence", "MESI, blocking directory, directory-mediated data"],
        ["shared L2", f"inclusive, {config.memory.l2_hit_latency}-cycle hit"],
        ["DRAM", f"{config.memory.dram_latency} cycles (cold miss)"],
        ["interconnect", f"crossbar, {config.interconnect.link_latency}-cycle "
                         "links, FIFO per (src,dst)"],
        ["consistency models", "SC, TSO, RMO"],
        ["speculation modes", "on-demand, continuous"],
        ["rollback penalty", f"{config.speculation.rollback_penalty} cycles"],
        ["IF storage/core", f"{storage.total_bytes:.0f} B "
                            f"({storage.breakdown_bits()})"],
    ]
    result.data["config"] = config
    return result


# -------------------------------------------------------------------- E11

def e11_plan(n_programs: int = 6, seed: int = 0) -> List[RunSpec]:
    # Fuzz runs are sub-millisecond simulations driven by the shrinking
    # loop; they run in build rather than through the shared scheduler.
    return []


def e11_build(results: Results = None, n_programs: int = 6,
              seed: int = 0) -> ExperimentResult:
    """Consistency-fuzz summary: the speculation machinery is invisible.

    Sweeps seeded random litmus programs over every consistency model x
    speculation mode x timing skew and checks each recorded execution
    against its own model's ordering axioms -- zero violations expected.
    Two deliberately broken machines (injected, test-only) demonstrate
    the pipeline catches real bugs and shrinks them to litmus size.
    """
    from repro.verification.fuzz import fuzz_sweep

    result = ExperimentResult(
        exp_id="E11",
        title="Consistency fuzzing: violations by model and injection",
        headers=["machine", "model", "cases", "violations",
                 "shrunk reproducer"],
    )
    for model in ConsistencyModel:
        report = fuzz_sweep(n_programs=n_programs, seed=seed,
                            models=[model], stop_after=None)
        result.rows.append(
            ["faithful", model.value.upper(), report.cases_run,
             len(report.failures), "-"])
        result.data[f"clean-{model.value}"] = report
    for inject, model in (("sc-load-no-drain", ConsistencyModel.SC),
                          ("stale-forward", ConsistencyModel.TSO)):
        report = fuzz_sweep(n_programs=4 * n_programs, seed=seed + 1,
                            ops_per_thread=10, models=[model],
                            inject=inject)
        shrunk = (f"{report.failures[0].shrunk.instruction_count()} instrs"
                  if report.failures else "NOT CAUGHT")
        result.rows.append(
            [f"broken ({inject})", model.value.upper(), report.cases_run,
             len(report.failures), shrunk])
        result.data[f"inject-{inject}"] = report
    result.notes = ("faithful machines must show 0 violations; "
                    "broken ones must be caught and shrunk")
    return result


# -------------------------------------------------------------------- E12

def e12_plan(n_programs: int = 4, seed: int = 0) -> List[RunSpec]:
    # Like E11, the grid is driven in build: each point needs the live
    # system's fault/retry counters, not just its SystemResult.
    return []


def e12_build(results: Results = None, n_programs: int = 4,
              seed: int = 0) -> ExperimentResult:
    """Fault-injection matrix: ordering survives an unreliable network.

    Runs seeded random litmus programs under every fault scenario
    (delay jitter, duplication, link stalls, drop-with-NACK-and-retry,
    and a combined storm) crossed with every consistency model and
    speculation mode, each under a liveness watchdog.  Every execution
    must pass its own model's ordering axioms: the retry/duplicate
    machinery may change *timing*, never *order*.
    """
    from repro.faults.plan import fault_scenarios
    from repro.verification.fuzz import (
        SKEW_CHOICES,
        SWEEP_SPECS,
        FuzzCase,
        execute_case,
    )
    from repro.workloads.randmix import random_litmus_ops
    import random as _random

    result = ExperimentResult(
        exp_id="E12",
        title="Fault injection: ordering checks under an unreliable network",
        headers=["scenario", "model", "runs", "checks passed", "retries",
                 "dups suppressed", "faults injected"],
    )
    rng = _random.Random(seed)
    cases = []
    for _ in range(n_programs):
        prog_seed = rng.randrange(2 ** 31)
        threads = tuple(tuple(ops) for ops in
                        random_litmus_ops(2, 6, seed=prog_seed))
        skews = tuple(rng.choice(SKEW_CHOICES) for _ in range(2))
        cases.append((threads, skews, prog_seed))
    scenarios = fault_scenarios(seed=seed)
    for scenario, plan in scenarios.items():
        for model in ConsistencyModel:
            runs = passed = retries = dups = injected = 0
            for threads, skews, prog_seed in cases:
                for si, spec in enumerate(SWEEP_SPECS):
                    # Reseed the plan per run: a litmus run sends only a
                    # few dozen messages, so a single shared RNG prefix
                    # would make rare faults fire never or always.
                    run_plan = None
                    if plan.active:
                        run_plan = replace(plan,
                                           seed=(prog_seed * 31 + si)
                                           & 0x7FFFFFFF)
                    case = FuzzCase(
                        threads=threads, model=model, spec=spec,
                        skews=skews, seed=prog_seed,
                        fault_plan=run_plan)
                    system, _report = execute_case(case)
                    runs += 1
                    passed += 1  # execute_case raises on violation
                    stats = system.stats
                    n = system.config.n_cores
                    retries += int(stats.sum(
                        [f"l1.{i}.retries" for i in range(n)]
                        + ["dir.retries"]))
                    dups += int(stats.sum(
                        [f"l1.{i}.dups_suppressed" for i in range(n)]
                        + ["dir.dups_suppressed"]))
                    injected += int(stats.sum(
                        ["faults.dropped", "faults.duplicated",
                         "faults.stalls", "faults.delayed"]))
            result.rows.append(
                [scenario, model.value.upper(), runs, passed,
                 retries, dups, injected])
            result.data[f"{scenario}-{model.value}"] = {
                "runs": runs, "passed": passed, "retries": retries,
                "dups_suppressed": dups, "faults_injected": injected,
            }
    result.notes = ("every run passes its model's ordering axioms under "
                    "a liveness watchdog; faults shift timing, not order")
    return result


# -------------------------------------------------------------------- E13

def e13_plan(seed: int = 0, max_queries: int = 200,
             skew_retries: int = 2) -> List[RunSpec]:
    # Synthesis drives its own litmus-sized simulations (the oracle's
    # dynamic layer and the cycle-cost probes); nothing for the shared
    # scheduler.
    return []


def e13_build(results: Results = None, seed: int = 0,
              max_queries: int = 200,
              skew_retries: int = 2) -> ExperimentResult:
    """Fence synthesis: minimal fence sets and their cost vs. speculation.

    For each canonical fence-free litmus shape (SB, MP, LB) and each
    stronger target model (SC, TSO), synthesize the minimal fence set
    that restores the target on the RMO machine, then measure what the
    synthesized fences cost in cycles with speculation off vs.
    InvisiFence ON_DEMAND / CONTINUOUS.  This is the paper's headline
    read from the other side: the conventional fix for relaxed-memory
    bugs is fences, whose StoreLoad drains stall the core -- speculation
    makes the *same fences* (nearly) free, so "performance-transparent
    memory ordering" means the synthesized repair costs no performance.
    """
    from repro.verification.fuzz import SWEEP_SPECS
    from repro.verification.synth import fence_cost, synthesize_fences
    from repro.workloads.litmus import canonical_litmus_ir

    result = ExperimentResult(
        exp_id="E13",
        title="Fence synthesis: minimal fences and cycle cost vs. speculation",
        headers=["workload", "target", "synthesized fences", "count",
                 "cyc unfenced", "cyc spec=none", "cyc on-demand",
                 "cyc continuous"],
    )
    for name, threads in canonical_litmus_ir().items():
        for target in (ConsistencyModel.SC, ConsistencyModel.TSO):
            synth = synthesize_fences(threads, target, seed=seed,
                                      max_queries=max_queries,
                                      skew_retries=skew_retries)
            fences = (", ".join(p.describe() for p in synth.placements)
                      or "none")
            unfenced = fence_cost(threads, ())
            costs = {spec: fence_cost(threads, synth.placements, spec=spec)
                     for spec in SWEEP_SPECS}
            result.rows.append(
                [name, target.value.upper(), fences, synth.fence_count,
                 unfenced,
                 costs[SpeculationMode.NONE],
                 costs[SpeculationMode.ON_DEMAND],
                 costs[SpeculationMode.CONTINUOUS]])
            result.data[f"{name}-{target.value}"] = {
                "synthesis": synth,
                "cycles_unfenced": unfenced,
                "cycles": {spec.value: costs[spec] for spec in SWEEP_SPECS},
            }
    result.notes = ("fences synthesized from RMO by the two-layer oracle "
                    "(exhaustive witnesses + machine sweep); only "
                    "StoreLoad/FULL fences drain the store buffer, so "
                    "speculation wins back exactly those stalls")
    return result


# -------------------------------------------------------------------- E14

#: Node-fault modes E14 sweeps (names from node_fault_scenarios).
E14_NODE_MODES = ("crash", "pause", "pause-crash")
#: Chaos window sized to the protocol workloads' runtimes (the shortest,
#: gossip, finishes near cycle 850 -- faults past that would be no-ops).
E14_WINDOW = (250, 700)
E14_PAUSE_CYCLES = (150, 450)


def _e14_link_plans(seed: int) -> Dict[str, "object"]:
    from repro.faults.plan import FaultPlan
    return {
        "clean": None,
        "drop": FaultPlan(seed=seed, drop_prob=0.08),
        "jitter": FaultPlan(seed=seed, jitter_prob=0.25, max_jitter=7),
    }


def e14_plan(seeds: Sequence[int] = (0, 1, 2),
             n_cores: int = 4) -> List[RunSpec]:
    """The chaos grid: seeds x node-fault modes x link plans x protocols.

    Every point keeps ``check=True``, so the sweep scheduler runs each
    protocol workload's safety checker (election safety / gossip
    convergence / log agreement) on the perturbed result -- a property
    violation fails the sweep, not just a table cell.
    """
    from repro.faults.nodeplan import node_fault_scenarios
    from repro.workloads.protocols import protocol_suite

    specs = []
    config = SystemConfig(n_cores=n_cores)
    for seed in seeds:
        node_modes = node_fault_scenarios(
            seed=seed, n_cores=n_cores, window=E14_WINDOW,
            pause_cycles=E14_PAUSE_CYCLES)
        links = _e14_link_plans(seed)
        for mode in E14_NODE_MODES:
            for link_name, link_plan in links.items():
                for workload in protocol_suite(n_cores):
                    specs.append(RunSpec(
                        label=(f"{workload.name}/s{seed}/{mode}"
                               f"/{link_name}"),
                        config=config, workload=workload,
                        fault_plan=link_plan,
                        node_plan=node_modes[mode]))
    return specs


def _e14_directed_scenarios(n_cores: int = 4) -> Dict:
    """The two directed chaos demonstrations that ride along with the grid.

    * **fail-stop deadlock**: one dropped coherence request with retries
      disabled (the PR 4 watchdog demo) *plus* a crash-stopped third
      core -- the resulting :class:`~repro.faults.DeadlockError` dump
      must name the dead node, so a chaos hang is diagnosable at a
      glance;
    * **recovery**: a paused gossip core resumes mid-protocol, rejoins,
      and the convergence property still holds -- fail-recover is a real
      recovery, not a euphemism for a crash.
    """
    from repro.faults import (CRASH, PAUSE, DeadlockError, FaultPlan,
                              NodeFault, NodeFaultPlan, Watchdog)
    from repro.isa.program import Assembler
    from repro.system import System
    from repro.workloads.protocols import gossip

    out: Dict = {}

    # --- fail-stop deadlock: the dump names the crashed core ----------
    programs = []
    for tid in range(3):
        asm = Assembler(f"chaos-demo.t{tid}")
        if tid == 2:
            asm.exec_(600)             # stay busy so the crash lands mid-run
        asm.li(1, 0x1_0000).li(2, tid + 1)
        asm.store(2, base=1, offset=8 * tid)
        asm.halt()
        programs.append(asm.build())
    link = FaultPlan(seed=0, drop_first_n=1, retries_enabled=False)
    node = NodeFaultPlan(seed=0, faults=(NodeFault(2, CRASH, 100),))
    system = System(SystemConfig(n_cores=3), programs, fault_plan=link,
                    node_plan=node)
    try:
        system.run(watchdog=Watchdog(system, check_interval=500))
    except DeadlockError as exc:
        dump = str(exc)
        if "CRASHED" not in dump or "core 2" not in dump:
            raise AssertionError(
                "fail-stop deadlock dump does not name the crashed core:\n"
                + dump)
        out["failstop"] = {"caught": True, "dump": dump}
    else:
        raise AssertionError(
            "directed fail-stop scenario unexpectedly completed")

    # --- recovery: a paused core resumes and the property holds -------
    workload = gossip(n_cores)
    node = NodeFaultPlan(seed=0, faults=(NodeFault(1, PAUSE, 300, 400),))
    system = System(SystemConfig(n_cores=n_cores), workload.programs,
                    workload.initial_memory, node_plan=node)
    result = system.run(watchdog=Watchdog(system))
    snapshot = result.stats.snapshot()
    if snapshot.get("nodefaults.resumes", 0) < 1:
        raise AssertionError("recovery scenario never resumed its core")
    if result.crashed_core_ids():
        raise AssertionError("recovery scenario unexpectedly crashed a core")
    report = workload.checker(result, **workload.protocol_params)
    out["recovery"] = {"resumes": snapshot["nodefaults.resumes"],
                       "report": report, "cycles": result.cycles}
    return out


def e14_build(results: Results, seeds: Sequence[int] = (0, 1, 2),
              n_cores: int = 4) -> ExperimentResult:
    """Chaos matrix: protocol safety under node faults + link faults.

    Aggregates the grid per (node mode, link plan): every point's
    protocol checker must pass (the scheduler already enforced it; the
    build re-runs the checkers to count obligations and collect benign
    notes), and the fault counters show the chaos actually landed.
    Directed scenarios ride along: the fail-stop watchdog demo (the
    deadlock dump names the dead node) and a pause-resume recovery run.
    """
    from repro.workloads.protocols import protocol_suite

    result = ExperimentResult(
        exp_id="E14",
        title="Chaos layer: protocol safety under node + link faults",
        headers=["node mode", "link plan", "points", "props checked",
                 "crashes", "pauses", "resumes", "deferred",
                 "link faults", "retries"],
    )
    specs = e14_plan(seeds=seeds, n_cores=n_cores)
    checkers = {wl.name: (wl.checker, wl.protocol_params)
                for wl in protocol_suite(n_cores)}
    agg: Dict = {}
    for spec in specs:
        point = results[spec.label]
        mode, link = spec.label.rsplit("/", 2)[-2:]
        checker, params = checkers[spec.workload.name]
        report = checker(point, **params)
        stats = point.stats.snapshot()
        n = spec.config.n_cores
        row = agg.setdefault((mode, link), {
            "points": 0, "checked": 0, "crashes": 0, "pauses": 0,
            "resumes": 0, "deferred": 0, "link_faults": 0, "retries": 0,
            "notes": []})
        row["points"] += 1
        row["checked"] += report.checked
        row["crashes"] += int(stats.get("nodefaults.crashes", 0))
        row["pauses"] += int(stats.get("nodefaults.pauses", 0))
        row["resumes"] += int(stats.get("nodefaults.resumes", 0))
        row["deferred"] += int(stats.get("nodefaults.deferred", 0))
        row["link_faults"] += int(sum(
            stats.get(key, 0) for key in
            ("faults.dropped", "faults.duplicated", "faults.stalls",
             "faults.delayed")))
        row["retries"] += int(sum(
            stats.get(f"l1.{i}.retries", 0) for i in range(n))
            + stats.get("dir.retries", 0))
        row["notes"].extend(report.notes)
    for (mode, link), row in agg.items():
        result.rows.append(
            [mode, link, row["points"], row["checked"], row["crashes"],
             row["pauses"], row["resumes"], row["deferred"],
             row["link_faults"], row["retries"]])
        result.data[f"{mode}/{link}"] = row
    resumed = sum(row["resumes"] for (mode, _), row in agg.items()
                  if "pause" in mode)
    if resumed < 1:
        raise AssertionError(
            "no paused core ever resumed across the chaos grid -- "
            "fail-recover never actually recovered")
    result.data["directed"] = _e14_directed_scenarios(n_cores)
    result.notes = ("every grid point passed its protocol safety checker "
                    "under a liveness watchdog; the directed fail-stop "
                    "hang was caught with the dead node named in the "
                    f"dump, and {resumed} pause(s) recovered cleanly")
    return result


e1_ordering_breakdown = Experiment("E1", e1_plan, e1_build)
e2_transparency = Experiment("E2", e2_plan, e2_build)
e3_modes = Experiment("E3", e3_plan, e3_build)
e4_violations = Experiment("E4", e4_plan, e4_build)
e5_sensitivity = Experiment("E5", e5_plan, e5_build)
e6_storage = Experiment("E6", e6_plan, e6_build)
e7_commit_arbitration = Experiment("E7", e7_plan, e7_build)
e8_store_buffer = Experiment("E8", e8_plan, e8_build)
e9_scaling = Experiment("E9", e9_plan, e9_build)
e10_system_parameters = Experiment("E10", e10_plan, e10_build)
e11_consistency_fuzz = Experiment("E11", e11_plan, e11_build)
e12_fault_injection = Experiment("E12", e12_plan, e12_build)
e13_fence_synthesis = Experiment("E13", e13_plan, e13_build)
e14_chaos = Experiment("E14", e14_plan, e14_build)


def all_experiments() -> Dict[str, Experiment]:
    """Registry used by the CLI example and the benchmark suite."""
    return {
        "E1": e1_ordering_breakdown,
        "E2": e2_transparency,
        "E3": e3_modes,
        "E4": e4_violations,
        "E5": e5_sensitivity,
        "E6": e6_storage,
        "E7": e7_commit_arbitration,
        "E8": e8_store_buffer,
        "E9": e9_scaling,
        "E10": e10_system_parameters,
        "E11": e11_consistency_fuzz,
        "E12": e12_fault_injection,
        "E13": e13_fence_synthesis,
        "E14": e14_chaos,
    }
