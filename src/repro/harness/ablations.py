"""Ablations of the design choices DESIGN.md calls out.

* A1 -- interconnect topology: crossbar vs 2D mesh (does the
  transparency result depend on an idealised fabric?);
* A2 -- store-buffer coalescing on/off;
* A3 -- rollback strategy: clean-before-write vs victim buffer;
* A4 -- exclusive store prefetch depth (the store-miss overlap knob);
* A5 -- speculate-past-release: triggerable via the new workloads
  (work-stealing, reader-writer) which stress rotating CAS targets;
* A6 -- energy-delay view: stall time removed vs speculative work
  wasted, through the first-order energy model.

Each is an :class:`~repro.harness.experiments.Experiment` written the
way E1-E9 are: ``plan`` declares ``name|variant`` points and ``build``
makes the table from their results, so one shared sweep deduplicates
the ablations' points against every other table's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.analysis.energy import estimate_energy
from repro.harness.experiments import Experiment, ExperimentResult, Results
from repro.harness.parallel import RunSpec
from repro.sim.config import (
    ConsistencyModel,
    InterconnectConfig,
    RollbackStrategy,
    SpeculationMode,
    SystemConfig,
    Topology,
)
from repro.workloads import randmix, rwlock, streaming, tasks
from repro.workloads.suite import standard_suite

_SC = ConsistencyModel.SC
_ON_DEMAND = SpeculationMode.ON_DEMAND


# --------------------------------------------------------------------- A1

_A1_WORKLOADS = ("streaming-writer", "producer-consumer", "locks-ticket")


def a1_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    suite = standard_suite(n_cores, scale)
    specs = []
    for name in _A1_WORKLOADS:
        for topology in Topology:
            base = replace(SystemConfig(n_cores=n_cores).with_consistency(_SC),
                           interconnect=InterconnectConfig(topology=topology))
            specs.append(RunSpec(f"{name}|{topology.value}|base-sc", base,
                                 suite[name]))
            specs.append(RunSpec(f"{name}|{topology.value}|if-sc",
                                 base.with_speculation(_ON_DEMAND),
                                 suite[name]))
    return specs


def a1_build(results: Results, n_cores: int = 8,
             scale: float = 1.0) -> ExperimentResult:
    """Crossbar vs 2D mesh: the headline result (InvisiFence-SC recovers
    conventional SC's loss) must survive a real NoC, not just an
    idealised crossbar."""
    result = ExperimentResult(
        exp_id="A1",
        title="Interconnect ablation: base-SC vs IF-SC per fabric",
        headers=["workload", "fabric", "base-sc cycles", "if-sc cycles",
                 "speedup"],
    )
    for name in _A1_WORKLOADS:
        for topology in Topology:
            base = results[f"{name}|{topology.value}|base-sc"]
            invisi = results[f"{name}|{topology.value}|if-sc"]
            result.rows.append([
                name, topology.value, base.cycles, invisi.cycles,
                round(base.cycles / invisi.cycles, 3),
            ])
            result.data[(name, topology.value)] = (base, invisi)
    return result


# --------------------------------------------------------------------- A2

def _repeat_store_workload(n_threads: int, bursts: int = 12,
                           stores_per_burst: int = 6):
    """Bursts of same-address stores (a hot status word being updated):
    exactly the pattern coalescing collapses."""
    from repro.isa.program import Assembler
    from repro.workloads.base import Layout, Workload

    layout = Layout()
    hot = [layout.word() for _ in range(n_threads)]
    programs = []
    for tid in range(n_threads):
        asm = Assembler(f"repeat.t{tid}")
        asm.li(1, hot[tid])
        value = 0
        for _ in range(bursts):
            for _ in range(stores_per_burst):
                value += 1
                asm.li(2, value)
                asm.store(2, base=1)
            asm.exec_(30)  # let the (possibly merged) burst drain
        asm.halt()
        programs.append(asm.build())

    final = bursts * stores_per_burst

    def validate(result):
        for tid in range(n_threads):
            assert result.read_word(hot[tid]) == final

    return Workload("repeat-stores", programs, {}, validate=validate)


def a2_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    suite = standard_suite(n_cores, scale)
    workloads = {"repeat-stores": _repeat_store_workload(n_cores),
                 "producer-consumer": suite["producer-consumer"]}
    specs = []
    for name, workload in workloads.items():
        for coalescing in (False, True):
            config = SystemConfig(n_cores=n_cores)
            config = replace(config, core=replace(
                config.core, store_buffer_coalescing=coalescing))
            specs.append(RunSpec(f"{name}|{coalescing}", config, workload))
    return specs


def a2_build(results: Results, n_cores: int = 8,
             scale: float = 1.0) -> ExperimentResult:
    """Store-buffer coalescing: repeat-address bursts collapse to one
    drain each; workloads without such bursts are unaffected."""
    result = ExperimentResult(
        exp_id="A2",
        title="Store-buffer coalescing ablation",
        headers=["workload", "coalescing", "cycles", "stores drained"],
    )
    for name in ("repeat-stores", "producer-consumer"):
        for coalescing in (False, True):
            run = results[f"{name}|{coalescing}"]
            drained = int(run.stats.sum(
                f"core.{i}.stores_drained" for i in range(n_cores)))
            result.rows.append([name, coalescing, run.cycles, drained])
            result.data[(name, coalescing)] = run
    return result


# --------------------------------------------------------------------- A3

def _dirty_rewrite_workload(n_threads: int, iterations: int = 20,
                            dirty_blocks: int = 12):
    """Speculative rewrites of blocks that are already dirty.

    Each iteration dirties several private blocks non-speculatively,
    then opens a window (cold store + fence) and rewrites them inside
    it: clean-before-write must write each one back first, while the
    victim buffer saves copies (and aborts when it overflows).
    """
    from repro.isa.instructions import FenceKind
    from repro.isa.program import Assembler
    from repro.workloads.base import Layout, Workload

    layout = Layout()
    blocks = [layout.padded_array(dirty_blocks) for _ in range(n_threads)]
    cold = [layout.array(8 * (iterations + 1)) for _ in range(n_threads)]
    programs = []
    for tid in range(n_threads):
        asm = Assembler(f"dirty_rewrite.t{tid}")
        asm.li(24, 1)
        asm.li(5, cold[tid])
        for i in range(iterations):
            for addr in blocks[tid]:
                asm.li(1, addr).li(2, i + 1)
                asm.store(2, base=1)          # dirty, non-speculative
            asm.exec_(60)                     # drains settle
            asm.store(24, base=5)             # cold store opens window
            asm.addi(5, 5, 64)
            asm.fence(FenceKind.FULL)
            for addr in blocks[tid]:
                asm.li(1, addr).li(2, 1000 + i)
                asm.store(2, base=1)          # speculative dirty rewrite
        asm.halt()
        programs.append(asm.build())

    final = 1000 + iterations - 1

    def validate(result):
        for tid in range(n_threads):
            for addr in blocks[tid]:
                assert result.read_word(addr) == final

    return Workload("dirty-rewrite", programs, {}, validate=validate)


def a3_plan(n_cores: int = 4) -> List[RunSpec]:
    workloads = {
        "dirty-rewrite": _dirty_rewrite_workload(n_cores),
        "work-stealing": tasks.work_stealing(n_cores, tasks_per_thread=8),
    }
    specs = []
    for name, workload in workloads.items():
        for strategy in RollbackStrategy:
            config = SystemConfig(n_cores=n_cores).with_speculation(
                _ON_DEMAND, rollback_strategy=strategy,
                victim_buffer_entries=8)
            specs.append(RunSpec(f"{name}|{strategy.value}", config,
                                 workload))
    return specs


def a3_build(results: Results, n_cores: int = 4) -> ExperimentResult:
    """Clean-before-write vs victim buffer.

    Clean-before-write spends writeback bandwidth up front on every
    dirty block it speculatively rewrites; the victim buffer avoids
    that traffic but aborts whenever its capacity is exceeded.
    """
    result = ExperimentResult(
        exp_id="A3",
        title="Rollback-strategy ablation",
        headers=["workload", "strategy", "cycles", "violations",
                 "clean-writebacks"],
    )
    for name in ("dirty-rewrite", "work-stealing"):
        for strategy in RollbackStrategy:
            run = results[f"{name}|{strategy.value}"]
            cleans = int(run.stats.sum(
                f"l1.{i}.clean_before_write" for i in range(n_cores)))
            result.rows.append([name, strategy.value, run.cycles,
                                run.violations(), cleans])
            result.data[(name, strategy.value)] = run
    return result


# --------------------------------------------------------------------- A4

def a4_plan(n_cores: int = 8,
            depths: Sequence[int] = (0, 1, 2, 4, 8)) -> List[RunSpec]:
    workload = streaming.streaming_writer(n_cores, iterations=30)
    specs = []
    for depth in depths:
        config = SystemConfig(n_cores=n_cores)
        config = replace(config, core=replace(config.core,
                                              store_prefetch_depth=depth))
        specs.append(RunSpec(f"depth{depth}|base", config, workload))
        specs.append(RunSpec(f"depth{depth}|if",
                             config.with_speculation(_ON_DEMAND), workload))
    return specs


def a4_build(results: Results, n_cores: int = 8,
             depths: Sequence[int] = (0, 1, 2, 4, 8)) -> ExperimentResult:
    """Exclusive-prefetch depth: how much store-miss overlap matters.

    Depth 0 reverts to a serial drain; the streaming workload shows the
    overlap directly (both baseline and InvisiFence benefit -- the knob
    is about modelling fidelity, not the mechanism).
    """
    result = ExperimentResult(
        exp_id="A4",
        title="Store exclusive-prefetch depth ablation",
        headers=["prefetch depth", "base-TSO cycles", "if-TSO cycles"],
    )
    for depth in depths:
        base = results[f"depth{depth}|base"]
        invisi = results[f"depth{depth}|if"]
        result.rows.append([depth, base.cycles, invisi.cycles])
        result.data[depth] = (base, invisi)
    return result


# --------------------------------------------------------------------- A5

def a5_plan(n_cores: int = 4) -> List[RunSpec]:
    workloads = {
        "work-stealing": tasks.work_stealing(n_cores, tasks_per_thread=10,
                                             task_cycles=20),
        "reader-writer": rwlock.reader_writer(n_cores - 1, 1,
                                              reader_iterations=12,
                                              writer_iterations=8),
    }
    base_sc = SystemConfig(n_cores=n_cores).with_consistency(_SC)
    configs = {
        "base-sc": base_sc,
        "base-rmo": SystemConfig(n_cores=n_cores).with_consistency(
            ConsistencyModel.RMO),
        "if-sc": base_sc.with_speculation(_ON_DEMAND),
    }
    return [RunSpec(f"{name}|{label}", config, workload)
            for name, workload in workloads.items()
            for label, config in configs.items()]


def a5_build(results: Results, n_cores: int = 4) -> ExperimentResult:
    """The CAS-dense workloads: does transparency hold beyond spinlocks?"""
    result = ExperimentResult(
        exp_id="A5",
        title="Transparency on CAS-dense workloads (normalised to base-RMO)",
        headers=["workload", "base-sc", "base-rmo", "if-sc", "violations"],
    )
    for name in ("work-stealing", "reader-writer"):
        base_sc, base_rmo, if_sc = (results[f"{name}|{label}"] for label
                                    in ("base-sc", "base-rmo", "if-sc"))
        rmo = base_rmo.cycles
        result.rows.append([
            name,
            round(base_sc.cycles / rmo, 3),
            1.0,
            round(if_sc.cycles / rmo, 3),
            if_sc.violations(),
        ])
        result.data[name] = (base_sc, base_rmo, if_sc)
    return result


# --------------------------------------------------------------------- A6

_A6_WORKLOADS = ("streaming-writer", "producer-consumer", "false-sharing")


def a6_plan(n_cores: int = 8, scale: float = 1.0) -> List[RunSpec]:
    suite = standard_suite(n_cores, scale)
    workloads = {
        "streaming-writer": suite["streaming-writer"],
        "producer-consumer": suite["producer-consumer"],
        "false-sharing": randmix.false_sharing(min(n_cores, 8),
                                               iterations=40, fence_every=2),
    }
    specs = []
    for name, workload in workloads.items():
        base = SystemConfig(n_cores=workload.n_threads).with_consistency(_SC)
        specs.append(RunSpec(f"{name}|base-sc", base, workload))
        specs.append(RunSpec(f"{name}|if-sc",
                             base.with_speculation(_ON_DEMAND), workload))
    return specs


def a6_build(results: Results, n_cores: int = 8,
             scale: float = 1.0) -> ExperimentResult:
    """Energy-delay view (extension): what does speculation cost in work?

    Speculation removes stall time but adds wasted (rolled-back) work;
    the energy model quantifies both sides.  On conflict-light workloads
    the energy-delay product improves with runtime; on the adversarial
    false-sharing stressor the wasted-work column shows the price.
    """
    result = ExperimentResult(
        exp_id="A6",
        title="Energy-delay (arbitrary units): base-SC vs IF-SC",
        headers=["workload", "config", "cycles", "energy", "wasted%",
                 "energy-delay (norm)"],
    )
    for name in _A6_WORKLOADS:
        base_edp = None
        for label in ("base-sc", "if-sc"):
            run = results[f"{name}|{label}"]
            report = estimate_energy(run)
            edp = report.energy_delay_product(run.cycles)
            if base_edp is None:
                base_edp = edp
            result.rows.append([
                name, label, run.cycles, round(report.total, 0),
                round(100 * report.wasted / report.total, 2),
                round(edp / base_edp, 3),
            ])
            result.data[(name, label)] = (run, report)
    return result


a1_topology = Experiment("A1", a1_plan, a1_build)
a2_coalescing = Experiment("A2", a2_plan, a2_build)
a3_rollback_strategy = Experiment("A3", a3_plan, a3_build)
a4_store_prefetch = Experiment("A4", a4_plan, a4_build)
a5_sync_rich_workloads = Experiment("A5", a5_plan, a5_build)
a6_energy = Experiment("A6", a6_plan, a6_build)


def all_ablations() -> Dict[str, Experiment]:
    """The ablation registry, used by the CLI example."""
    return {
        "A1": a1_topology,
        "A2": a2_coalescing,
        "A3": a3_rollback_strategy,
        "A4": a4_store_prefetch,
        "A5": a5_sync_rich_workloads,
        "A6": a6_energy,
    }
