"""Whole-system integration tests: suite correctness across the full
configuration grid, deadlock detection, result plumbing, the arbiter
baseline, and the harness."""

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.faults import CRASH, PAUSE, FaultPlan, NodeFault, NodeFaultPlan
from repro.isa import Assembler
from repro.isa.interpreter import superblock_spans
from repro.sim.config import (
    ConsistencyModel,
    InterconnectConfig,
    SpeculationMode,
    Topology,
)
from repro.sim.engine import SimulationError
from repro.system import System, run_system
from repro.workloads import standard_suite
from repro.workloads.locks import lock_contention
from repro.workloads.producer_consumer import pingpong
from repro.workloads.protocols import gossip, leader_election, replicated_log
from repro.harness.parallel import result_fingerprint, simulate_point
from repro.harness.runner import six_point_configs
from tests.conftest import small_config


class TestSystemPlumbing:
    def test_program_count_must_match_cores(self):
        with pytest.raises(ValueError):
            System(small_config(2), [Assembler("t").build()])

    def test_unaligned_initial_memory_rejected(self):
        with pytest.raises(ValueError):
            System(small_config(1), [Assembler("t").build()],
                   initial_memory={0x101: 1})

    def test_result_accessors(self):
        asm = Assembler("t").li(5, 7)
        result = run_system(small_config(1), [asm.build()])
        assert result.core_reg(0, 5) == 7
        assert result.cycles > 0
        assert result.total_instructions() >= 1
        assert result.violations() == 0
        assert result.commits() == 0

    def test_read_word_prefers_dirty_l1_copy(self):
        asm = Assembler("t")
        asm.li(1, 0x1000).li(2, 9)
        asm.store(2, base=1)
        system = System(small_config(1), [asm.build()])
        system.run()
        # The block is dirty in L1; the L2 copy is stale (0).
        assert system.directory.peek_word(0x1000) == 0
        assert system.read_word(0x1000) == 9

    def test_watchdog_catches_runaway(self):
        asm = Assembler("t")
        asm.label("spin").jmp("spin")
        system = System(small_config(1), [asm.build()])
        with pytest.raises(SimulationError):
            system.run(max_events=10_000)


class TestFullGrid:
    @pytest.mark.parametrize("model", list(ConsistencyModel))
    @pytest.mark.parametrize("spec", list(SpeculationMode))
    def test_suite_correct_under_grid(self, model, spec):
        """Every suite workload validates under every (model, spec)."""
        suite = standard_suite(2, scale=0.1)
        for workload in suite.values():
            config = (small_config(2).with_consistency(model)
                      .with_speculation(spec))
            result = run_system(config, workload.programs,
                                workload.initial_memory,
                                check_invariants=True)
            workload.check(result)

    def test_determinism(self):
        """Identical configs produce identical cycle counts and stats."""
        suite = standard_suite(2, scale=0.1)
        workload = suite["locks-tas"]
        config = small_config(2).with_speculation(SpeculationMode.ON_DEMAND)

        def snapshot():
            result = run_system(config, workload.programs,
                                workload.initial_memory)
            return result.cycles, result.stats.snapshot()

        assert snapshot() == snapshot()

    def test_speculation_reduces_ordering_stalls(self):
        suite = standard_suite(2, scale=0.2)
        workload = suite["producer-consumer"]
        base = run_system(small_config(2), workload.programs)
        spec = run_system(small_config(2).with_speculation(
            SpeculationMode.ON_DEMAND), workload.programs)
        assert spec.ordering_stall_cycles() < base.ordering_stall_cycles()


class TestArbitratedCommit:
    def test_arbitration_config_builds_arbiter(self):
        config = small_config(2).with_speculation(
            SpeculationMode.ON_DEMAND, commit_arbitration=True)
        system = System(config, [Assembler("a").build(),
                                 Assembler("b").build()])
        assert system.commit_arbiter is not None

    def test_no_arbiter_without_flag(self):
        config = small_config(2).with_speculation(SpeculationMode.ON_DEMAND)
        system = System(config, [Assembler("a").build(),
                                 Assembler("b").build()])
        assert system.commit_arbiter is None

    def test_arbitration_with_violations_stays_correct(self):
        """Commit grants racing with violations: a grant arriving after
        its episode rolled back must be dropped (the epoch check in
        Core._commit_granted), and the workload must still validate."""
        from repro.workloads import randmix
        wl = randmix.false_sharing(4, iterations=30, fence_every=2)
        config = small_config(4).with_speculation(
            SpeculationMode.ON_DEMAND, commit_arbitration=True,
            arbitration_latency=25)
        result = run_system(config, wl.programs, check_invariants=True)
        wl.check(result)
        # The scenario only bites if violations actually occurred.
        assert result.violations() > 0

    def test_arbitration_under_continuous_mode(self):
        suite = standard_suite(2, scale=0.2)
        workload = suite["locks-ticket"]
        config = small_config(2).with_speculation(
            SpeculationMode.CONTINUOUS, commit_arbitration=True,
            arbitration_latency=15)
        result = run_system(config, workload.programs, check_invariants=True)
        workload.check(result)

    def test_arbitrated_run_correct_and_slower_or_equal(self):
        suite = standard_suite(2, scale=0.2)
        workload = suite["producer-consumer"]
        local_cfg = small_config(2).with_speculation(SpeculationMode.ON_DEMAND)
        arb_cfg = small_config(2).with_speculation(
            SpeculationMode.ON_DEMAND, commit_arbitration=True,
            arbitration_latency=30)
        local = run_system(local_cfg, workload.programs)
        arb = run_system(arb_cfg, workload.programs)
        workload.check(local)
        workload.check(arb)
        assert arb.cycles >= local.cycles


class TestHarnessRunner:
    def test_six_point_grid(self):
        grid = six_point_configs(small_config(2))
        assert len(grid) == 6
        assert grid["if-sc"].speculation.enabled
        assert not grid["base-rmo"].speculation.enabled
        assert grid["base-sc"].core.consistency is ConsistencyModel.SC


def _link5(n_cores, homes=1):
    """small_config with the crossbar link stretched to 5 cycles."""
    config = small_config(n_cores)
    return replace(config, n_homes=homes,
                   interconnect=replace(config.interconnect, link_latency=5))


def _mesh(n_cores, hop):
    return replace(small_config(n_cores), interconnect=InterconnectConfig(
        topology=Topology.MESH, mesh_hop_latency=hop))


_LINK_FAULTS = FaultPlan(seed=5, jitter_prob=0.1, max_jitter=4, dup_prob=0.05)

#: (label, config, workload, link-fault plan, node-fault plan)
MACHINE_GRID = [
    ("pingpong2-xbar", small_config(2), pingpong(1, rounds=6), None, None),
    ("pingpong2-mesh", _mesh(2, 2), pingpong(1, rounds=6), None, None),
    ("pingpong4-xbar", small_config(4), pingpong(2, rounds=6), None, None),
    ("pingpong8-xbar", small_config(8), pingpong(4, rounds=5), None, None),
    ("pingpong8-mesh", _mesh(8, 2), pingpong(4, rounds=5), None, None),
    ("gossip4-xbar-L5", _link5(4), gossip(4), None, None),
    ("locks4-xbar-L5", _link5(4),
     lock_contention(4, increments=6, think_cycles=5), None, None),
    ("replog4-xbar-L5", _link5(4), replicated_log(4), None, None),
    ("gossip4-xbar-L5-spec",
     _link5(4).with_speculation(SpeculationMode.CONTINUOUS), gossip(4),
     None, None),
    ("election8-xbar-L3", small_config(8), leader_election(8), None, None),
    ("election8-xbar-L5-homes4", _link5(8, homes=4), leader_election(8),
     None, None),
    ("pingpong4-nosb-L5", _link5(4), pingpong(2, rounds=6), None, None),
    ("gossip4-xbar-linkfault", small_config(4), gossip(4), _LINK_FAULTS,
     None),
    ("pingpong4-xbar-linkfault", small_config(4), pingpong(2, rounds=6),
     _LINK_FAULTS, None),
    ("gossip4-L5-crash", _link5(4), gossip(4), None,
     NodeFaultPlan(faults=(NodeFault(2, CRASH, 400),))),
    ("pingpong8-pause", small_config(8), pingpong(4, rounds=5), None,
     NodeFaultPlan(faults=(NodeFault(1, PAUSE, 300, 200),))),
    ("pingpong4-chaos", small_config(4), pingpong(2, rounds=6), _LINK_FAULTS,
     NodeFaultPlan(faults=(NodeFault(1, PAUSE, 200, 150),))),
]


class TestMachineGrid:
    """Small machines across the configuration axes: crossbar and mesh,
    5-cycle links, continuous speculation, four directory homes,
    superblocks off, and link-fault, node-fault and composed plans.
    Each passes its workload's own check, runs identically with
    superblocks flipped, and reaches the same result through the
    harness's ``simulate_point`` (the ``max_cycles`` cap, plus a
    watchdog on perturbed points)."""

    @pytest.mark.parametrize("label,config,workload,fault_plan,node_plan",
                             MACHINE_GRID, ids=[p[0] for p in MACHINE_GRID])
    def test_point_is_correct_and_reproducible(self, label, config, workload,
                                               fault_plan, node_plan,
                                               fusion_off):
        def run():
            return System(config, workload.programs, workload.initial_memory,
                          fault_plan=fault_plan, node_plan=node_plan).run()

        # A ``nosb`` point runs with fusion off and flips it on.
        unfused = "-nosb-" in label
        with fusion_off() if unfused else nullcontext():
            result = run()
            workload.check(result)
            # The watchdog's own checks are events too, so only the
            # result is compared with the harness's run.
            harness, _seconds = simulate_point(config, workload.programs,
                                               workload.initial_memory,
                                               fault_plan, node_plan)
        expected = (result_fingerprint(result), result.events)
        assert result_fingerprint(harness) == expected[0]
        with nullcontext() if unfused else fusion_off():
            flipped = run()
        assert (result_fingerprint(flipped), flipped.events) == expected
        # The flip proves nothing if both runs were unfused: a point with
        # a loop span fuses unless its speculation is CONTINUOUS.
        fused = flipped if unfused else result
        if any(superblock_spans(p) for p in workload.programs) and \
                config.speculation.mode is not SpeculationMode.CONTINUOUS:
            assert fused.fused_instructions() > 0, label
