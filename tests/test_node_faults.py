"""Node-fault chaos layer: plans, crash/pause semantics, determinism.

Covers the `repro.faults.nodeplan` / `repro.faults.nodes` axis end to
end: construction-time plan validation (both fault axes), fail-stop and
fail-recover semantics on the live machine, bit-for-bit replay with
superblocks on and off, invisibility of inactive plans, composition
with link fault plans, and the watchdog's crash-aware diagnostics.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    CRASH,
    PAUSE,
    DeadlockError,
    FaultPlan,
    NodeFault,
    NodeFaultPlan,
    Watchdog,
    node_fault_scenarios,
)
from repro.faults.watchdog import diagnostic_dump
from repro.harness.parallel import (
    RunSpec,
    point_fingerprint,
    result_fingerprint,
    simulate_point,
)
from repro.isa.program import Assembler
from repro.sim.config import SystemConfig
from repro.system import System
from tests.conftest import counter_workload


def _run(workload, node_plan=None, fault_plan=None, *, watchdog=True):
    config = SystemConfig(n_cores=len(workload.programs))
    system = System(config, workload.programs, workload.initial_memory,
                    fault_plan=fault_plan, node_plan=node_plan)
    return system.run(watchdog=Watchdog(system) if watchdog else None)


def _crash_plan(core=1, at=200):
    return NodeFaultPlan(seed=0, faults=(NodeFault(core, CRASH, at),))


def _pause_plan(core=1, at=200, duration=400):
    return NodeFaultPlan(seed=0, faults=(NodeFault(core, PAUSE, at,
                                                   duration),))


# ------------------------------------------------------------ validation

class TestPlanValidation:
    def test_rejects_negative_core(self):
        with pytest.raises(ValueError, match="core must be >= 0"):
            NodeFault(-1, CRASH, 10)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be"):
            NodeFault(0, "powercycle", 10)

    def test_rejects_negative_cycle(self):
        with pytest.raises(ValueError, match="at_cycle must be >= 0"):
            NodeFault(0, CRASH, -5)

    def test_crash_has_no_duration(self):
        with pytest.raises(ValueError, match="crash has no duration"):
            NodeFault(0, CRASH, 10, duration=5)

    def test_pause_needs_duration(self):
        with pytest.raises(ValueError, match="duration >= 1"):
            NodeFault(0, PAUSE, 10, duration=0)

    def test_rejects_duplicate_fault_cycle(self):
        with pytest.raises(ValueError, match="duplicate fault at cycle"):
            NodeFaultPlan(faults=(NodeFault(0, PAUSE, 10, 5),
                                  NodeFault(0, PAUSE, 10, 7)))

    def test_rejects_fault_after_crash(self):
        with pytest.raises(ValueError, match="never comes back"):
            NodeFaultPlan(faults=(NodeFault(0, CRASH, 10),
                                  NodeFault(0, PAUSE, 50, 5)))

    def test_rejects_overlapping_windows(self):
        with pytest.raises(ValueError, match="overlap or touch"):
            NodeFaultPlan(faults=(NodeFault(0, PAUSE, 10, 20),
                                  NodeFault(0, PAUSE, 25, 5)))

    def test_rejects_touching_windows(self):
        # A fault exactly at the resume cycle would race the resume
        # event inside one simulator bucket.
        with pytest.raises(ValueError, match="overlap or touch"):
            NodeFaultPlan(faults=(NodeFault(0, PAUSE, 10, 20),
                                  NodeFault(0, CRASH, 30)))

    def test_disjoint_windows_accepted_across_cores_and_time(self):
        plan = NodeFaultPlan(faults=(NodeFault(0, PAUSE, 10, 20),
                                     NodeFault(0, CRASH, 31),
                                     NodeFault(1, PAUSE, 10, 20)))
        assert plan.active
        assert plan.affected_cores() == frozenset({0, 1})

    def test_rejects_non_nodefault_entries(self):
        with pytest.raises(ValueError, match="NodeFault instances"):
            NodeFaultPlan(faults=("crash",))

    def test_repr_round_trips(self):
        plan = _pause_plan()
        clone = eval(repr(plan))  # noqa: S307 - dataclass repr round-trip
        assert clone == plan
        assert clone.fingerprint() == plan.fingerprint()

    def test_link_plan_rejects_out_of_range_probabilities(self):
        # Satellite hardening check: both fault axes validate at
        # construction with clear errors.
        with pytest.raises(ValueError, match="drop_prob must be in"):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError, match="jitter_prob must be in"):
            FaultPlan(jitter_prob=-0.1)
        with pytest.raises(ValueError, match="requires max_jitter"):
            FaultPlan(jitter_prob=0.5)

    def test_system_rejects_out_of_range_core(self):
        wl = counter_workload(2)
        with pytest.raises(ValueError, match="only 2 cores"):
            System(SystemConfig(n_cores=2), wl.programs, wl.initial_memory,
                   node_plan=_crash_plan(core=5))

    def test_scenarios_are_seed_deterministic(self):
        a = node_fault_scenarios(seed=3)
        b = node_fault_scenarios(seed=3)
        assert a == b
        assert not a["none"].active
        assert a["crash"].faults[0].kind == CRASH
        assert a["pause"].faults[0].kind == PAUSE
        assert len(a["pause-crash"].faults) == 2
        # Single-victim scenarios spare core 0 (the protagonist).
        assert 0 not in a["crash"].affected_cores()


# ------------------------------------------------------------- semantics

class TestCrashSemantics:
    def test_crash_stops_the_victim_and_spares_the_rest(self):
        wl = counter_workload(2, iters=50)
        result = _run(wl, _crash_plan(core=1, at=200))
        assert result.crashed_core_ids() == [1]
        assert result.live_core_ids() == [0]
        assert result.read_word(0x1_0000) == 50          # survivor finished
        assert 0 < result.read_word(0x1_0040) < 50       # victim cut short
        summary = result.cores[1]
        assert summary.crashed and summary.crashed_at == 200
        assert not result.cores[0].crashed
        assert result.stats.snapshot()["nodefaults.crashes"] == 1

    def test_crash_after_halt_is_a_noop(self):
        wl = counter_workload(2, iters=3)            # finishes early
        result = _run(wl, _crash_plan(core=1, at=50_000))
        assert result.crashed_core_ids() == []
        assert result.stats.snapshot().get("nodefaults.crashes", 0) == 0

    def test_crash_composes_with_link_faults(self):
        wl = counter_workload(2, iters=50)
        link = FaultPlan(seed=2, drop_prob=0.05)
        result = _run(wl, _crash_plan(core=1, at=200), link)
        assert result.crashed_core_ids() == [1]
        snapshot = result.stats.snapshot()
        assert snapshot["nodefaults.crashes"] == 1
        assert "faults.dropped" in snapshot


class TestPauseSemantics:
    def test_pause_delays_then_recovers(self):
        wl = counter_workload(2, iters=50)
        clean = _run(wl)
        paused = _run(wl, _pause_plan(core=1, at=200, duration=400))
        assert paused.crashed_core_ids() == []
        assert paused.read_word(0x1_0040) == 50       # victim still finished
        assert paused.cores[1].finish_cycle > clean.cores[1].finish_cycle
        snapshot = paused.stats.snapshot()
        assert snapshot["nodefaults.pauses"] == 1
        assert snapshot["nodefaults.resumes"] == 1
        assert snapshot["nodefaults.deferred"] == 1

    def test_pause_after_halt_is_a_noop(self):
        wl = counter_workload(2, iters=3)
        result = _run(wl, _pause_plan(core=1, at=50_000, duration=100))
        assert result.stats.snapshot().get("nodefaults.pauses", 0) == 0


# ----------------------------------------------------------- determinism

class TestDeterminism:
    @pytest.mark.parametrize("plan_factory", [_crash_plan, _pause_plan])
    def test_replay_is_bit_identical(self, plan_factory):
        wl = counter_workload(2, iters=50)
        first = _run(wl, plan_factory())
        second = _run(wl, plan_factory())
        assert result_fingerprint(first) == result_fingerprint(second)

    @pytest.mark.parametrize("plan_factory", [_crash_plan, _pause_plan])
    def test_superblocks_on_off_identical(self, plan_factory, fusion_off):
        wl = counter_workload(2, iters=50)
        fused = _run(wl, plan_factory())
        assert fused.fused_instructions() > 0  # the untargeted core
        with fusion_off():
            plain = _run(wl, plan_factory())
        assert result_fingerprint(fused) == result_fingerprint(plain)

    def test_inactive_plan_is_invisible(self):
        wl = counter_workload(2, iters=20)
        clean = _run(wl)
        inactive = _run(wl, NodeFaultPlan(seed=7))
        assert result_fingerprint(clean) == result_fingerprint(inactive)
        assert not any(key.startswith("nodefaults.")
                       for key in clean.stats.snapshot())
        assert not any(key.startswith("nodefaults.")
                       for key in inactive.stats.snapshot())


# ------------------------------------------------------ point fingerprints

class TestPointIdentity:
    def test_node_plan_is_part_of_point_identity(self):
        wl = counter_workload(1)
        config = SystemConfig(n_cores=1)
        plan = _crash_plan(core=0)
        spec = RunSpec("p", config, wl, node_plan=plan)
        assert spec.fingerprint() == point_fingerprint(config, wl, None, plan)
        assert spec.fingerprint() != point_fingerprint(config, wl)
        assert point_fingerprint(config, wl, None, _crash_plan(core=0, at=9)) \
            != spec.fingerprint()

    def test_no_plan_keeps_historical_fingerprint(self):
        wl = counter_workload(1)
        config = SystemConfig(n_cores=1)
        assert RunSpec("p", config, wl).fingerprint() == \
            point_fingerprint(config, wl)

    def test_simulate_point_accepts_node_plan(self):
        wl = counter_workload(2, iters=50)
        result, _seconds = simulate_point(
            SystemConfig(n_cores=2), wl.programs, wl.initial_memory,
            None, _crash_plan(core=1, at=200))
        assert result.crashed_core_ids() == [1]


# ---------------------------------------------------- watchdog diagnostics

def _failstop_deadlock_system():
    """The directed scenario: dropped request + a crashed third core."""
    programs = []
    for tid in range(3):
        asm = Assembler(f"nfdump.t{tid}")
        if tid == 2:
            asm.exec_(600)
        asm.li(1, 0x1_0000).li(2, tid + 1)
        asm.store(2, base=1, offset=8 * tid)
        asm.halt()
        programs.append(asm.build())
    link = FaultPlan(seed=0, drop_first_n=1, retries_enabled=False)
    node = NodeFaultPlan(seed=0, faults=(NodeFault(2, CRASH, 100),))
    return System(SystemConfig(n_cores=3), programs, fault_plan=link,
                  node_plan=node)


class TestWatchdogDiagnostics:
    def test_dump_names_the_crashed_core(self):
        # Regression for the chaos layer: before it, the dump had no
        # notion of a dead node -- a fail-stop hang looked like a core
        # that silently stopped. Now the crash is named with its cycle
        # and the stores lost in the frozen buffer.
        system = _failstop_deadlock_system()
        with pytest.raises(DeadlockError) as excinfo:
            system.run(watchdog=Watchdog(system, check_interval=500))
        text = str(excinfo.value)
        assert "core 2: CRASHED (fail-stop) at cycle 100" in text
        assert "crash-stopped by the node-fault plan" in text
        # The dead core is excluded from the "blocked" list: it is not
        # stuck, it is gone.
        assert "cores [0] blocked" in text

    def test_dump_without_node_faults_has_no_crash_lines(self):
        wl = counter_workload(2, iters=5)
        system = System(SystemConfig(n_cores=2), wl.programs,
                        wl.initial_memory)
        assert "CRASHED" not in diagnostic_dump(system)

    def test_dump_names_a_paused_core(self):
        wl = counter_workload(2, iters=50)
        plan = _pause_plan(core=1, at=200, duration=400)
        system = System(SystemConfig(n_cores=2), wl.programs,
                        wl.initial_memory, node_plan=plan)
        # Drive the machine into the open pause window by hand (the
        # same start sequence System.run uses), then dump.
        system.node_controller.start()
        for core in system.cores:
            core.start()
        system.sim.run(until=300)
        assert system.cores[1].nf_state == 1
        dump = diagnostic_dump(system)
        assert "core 1: PAUSED since cycle 200" in dump
        assert "resumes at cycle 600" in dump

    def test_all_settled_counts_crashed_cores(self):
        wl = counter_workload(2, iters=50)
        config = SystemConfig(n_cores=2)
        system = System(config, wl.programs, wl.initial_memory,
                        node_plan=_crash_plan(core=1, at=200))
        assert not system.all_settled
        system.run()
        assert system.all_settled
        assert not system.all_halted          # the victim never halts
        assert system.crashed_cores == {1}
