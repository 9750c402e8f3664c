"""Finished machines are freed by reference counting.

A successful ``System.run()`` ends by disconnecting the machine's event
wiring: every component drops the callbacks that lead back to itself or
to a peer (``disconnect()`` on the core, L1, directory, interconnect,
fault injector and node-fault controller).  A finished machine is then
no reference cycle, and goes as soon as its last reference does.

The lifetime guard runs every kind of machine with the cyclic collector
off, drops it, and requires the system, its simulator, its network and
every core, store buffer, L1 and directory to be dead without a
``gc.collect()``.  A
callback that a component stores on itself or on a peer belongs in that
class's ``disconnect()``; one that is missed fails this guard.  The
second half requires a disconnected machine to read exactly as the
result its run returned.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import pytest

from repro.faults.nodeplan import CRASH, NodeFault, NodeFaultPlan
from repro.faults.plan import FaultPlan, fault_scenarios
from repro.faults.watchdog import DeadlockError, Watchdog, diagnostic_dump
from repro.harness import parallel
from repro.harness.experiments import e14_plan
from repro.harness.parallel import result_fingerprint, simulate_point
from repro.isa.program import Assembler
from repro.sim.config import (
    ConsistencyModel,
    InterconnectConfig,
    RollbackStrategy,
    SpeculationMode,
    SystemConfig,
    Topology,
)
from repro.system import System, SystemResult
from repro.verification import fuzz
from repro.verification.recorder import ExecutionRecorder
from repro.workloads.locks import lock_contention
from tests.conftest import small_config
from tests.test_fuzz_goldens import fuzz_golden_cases

SC, TSO, RMO = ConsistencyModel.SC, ConsistencyModel.TSO, ConsistencyModel.RMO
NONE, ON_DEMAND, CONTINUOUS = (SpeculationMode.NONE, SpeculationMode.ON_DEMAND,
                               SpeculationMode.CONTINUOUS)

_LOCKS = lock_contention(4, increments=3)


def _mesh(n_homes: int) -> SystemConfig:
    return replace(small_config(4, mode=ON_DEMAND),
                   interconnect=InterconnectConfig(topology=Topology.MESH,
                                                   mesh_hop_latency=2),
                   n_homes=n_homes)


#: Machine configurations run on the lock workload, by name.
CONFIGS = {
    "crossbar": small_config(4),
    "mesh-1-home": _mesh(1),
    "mesh-8-homes": _mesh(8),
    **{f"{model.value}/{mode.value}":
       small_config(4, mode=mode).with_consistency(model)
       for model in ConsistencyModel for mode in (NONE, ON_DEMAND, CONTINUOUS)},
    # Run with the ``fusion_off`` fixture.
    "superblocks-off": small_config(4, mode=ON_DEMAND),
    "commit-arbitration": small_config(
        4, mode=ON_DEMAND, commit_arbitration=True).with_consistency(SC),
    "victim-buffer": small_config(
        4, mode=CONTINUOUS,
        rollback_strategy=RollbackStrategy.VICTIM_BUFFER).with_consistency(TSO),
}


@contextmanager
def _collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _components(system: System) -> list:
    """Weak references to a machine and every component it wires."""
    parts = [system, system.sim, system.net, *system.cores, *system.l1s,
             *system.directories, *(core.sb for core in system.cores)]
    inner = getattr(system.net, "inner", None)
    if inner is not None:
        parts.append(inner)
    return [weakref.ref(part) for part in parts]


def _assert_freed(run) -> None:
    """``run()`` builds and runs machines and returns weak references to
    their components, keeping no strong ones; with the collector off,
    every referent must already be gone."""
    with _collector_off():
        refs = run()
        fuzz._twins.clear()
        survivors = [type(ref()).__name__ for ref in refs
                     if ref() is not None]
    assert refs
    assert survivors == []


def _run_locks(config: SystemConfig, *, tracing: bool = False,
               recorder: bool = False):
    system = System(config, _LOCKS.programs, _LOCKS.initial_memory)
    if tracing:
        system.enable_tracing()
    if recorder:
        ExecutionRecorder.attach(system)
    return system, system.run(check_invariants=True)


# ---------------------------------------------------------------- guard

@pytest.mark.parametrize("name", list(CONFIGS))
def test_finished_machine_is_freed_without_the_collector(name, fusion_off):
    def run():
        system, result = _run_locks(CONFIGS[name])
        _LOCKS.check(result)
        return _components(system)

    with fusion_off() if name == "superblocks-off" else nullcontext():
        _assert_freed(run)


def test_the_lock_workload_exercises_arbitration_and_rollback():
    _, arbitrated = _run_locks(CONFIGS["commit-arbitration"])
    assert arbitrated.stats.snapshot()["arbiter.grants"] > 0
    _, rolled_back = _run_locks(CONFIGS["victim-buffer"])
    assert rolled_back.violations() > 0
    _, fused = _run_locks(CONFIGS["crossbar"])
    assert fused.fused_blocks() > 0


@pytest.mark.parametrize("how", ["tracing", "recorder"])
def test_instrumented_machine_is_freed(how):
    def run():
        system, _ = _run_locks(CONFIGS["tso/on-demand"],
                               tracing=how == "tracing",
                               recorder=how == "recorder")
        return _components(system)

    _assert_freed(run)


def test_disconnected_machine_holds_no_instrument():
    """The recorder's listeners and the trace's ``send`` go with the
    wiring: a finished machine kept alive keeps neither alive."""
    with _collector_off():
        system = System(CONFIGS["tso/on-demand"], _LOCKS.programs,
                        _LOCKS.initial_memory)
        instruments = [weakref.ref(system.enable_tracing()),
                       weakref.ref(ExecutionRecorder.attach(system))]
        system.run()
        survivors = [type(ref()).__name__ for ref in instruments
                     if ref() is not None]
    assert survivors == []


def _recording_system(monkeypatch, refs: list) -> None:
    """Make ``simulate_point`` build machines whose components ``refs``
    collects at construction."""

    class Recorded(System):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.extend(_components(self))

    monkeypatch.setattr(parallel, "System", Recorded)


def test_drop_retry_point_under_a_watchdog_is_freed(monkeypatch):
    plan = fault_scenarios(seed=0)["drop-retry"]
    refs: list = []
    _recording_system(monkeypatch, refs)

    def run():
        result, _ = simulate_point(small_config(4, mode=ON_DEMAND),
                                   _LOCKS.programs, _LOCKS.initial_memory,
                                   fault_plan=plan)
        assert result.stats.snapshot()["faults.dropped"] > 0
        return refs

    _assert_freed(run)


@pytest.mark.parametrize("mode", ["crash", "pause"])
def test_e14_node_fault_point_is_freed(monkeypatch, mode):
    spec = next(s for s in e14_plan(seeds=(0,))
                if s.label.endswith(f"/{mode}/clean"))
    refs: list = []
    _recording_system(monkeypatch, refs)

    def run():
        result, _ = simulate_point(spec.config, spec.workload.programs,
                                   spec.workload.initial_memory,
                                   node_plan=spec.node_plan)
        counter = "nodefaults.crashes" if mode == "crash" else \
            "nodefaults.pauses"
        assert result.stats.snapshot()[counter] == 1
        return refs

    _assert_freed(run)


def _golden_case(model, fault_plan: bool = False):
    return next(case for _, case in fuzz_golden_cases()
                if case.model is model and case.spec is ON_DEMAND
                and (case.fault_plan is not None) == fault_plan)


@pytest.mark.parametrize("fault_plan", [False, True],
                         ids=["clean", "drop-retry"])
def test_fuzz_twin_pair_is_freed(fault_plan):
    tso = _golden_case(TSO, fault_plan)
    rmo = replace(tso, model=RMO)

    def run():
        fuzz._twins.clear()
        first, _ = fuzz.execute_case(tso)
        second, _ = fuzz.execute_case(rmo)
        assert second.sim is first.sim      # the RMO case took the TSO run
        return _components(first) + _components(second)

    _assert_freed(run)


@pytest.mark.parametrize("inject", fuzz.INJECTIONS)
def test_fuzz_injected_machine_is_freed(inject):
    case = replace(_golden_case(TSO), inject=inject)
    config = fuzz.fuzz_config(case.n_threads, case.model, case.spec)

    def run():
        system, _recorder = fuzz._simulate(case, config)
        return _components(system)

    _assert_freed(run)


def test_failed_run_keeps_its_wiring_for_diagnosis():
    programs = []
    for tid in range(2):
        asm = Assembler(f"lifetime.t{tid}")
        asm.li(1, 0x1_0000).li(2, tid + 1)
        asm.store(2, base=1, offset=8 * tid)
        asm.halt()
        programs.append(asm.build())
    link = FaultPlan(seed=0, drop_first_n=1, retries_enabled=False)
    system = System(SystemConfig(n_cores=2), programs, fault_plan=link)
    with pytest.raises(DeadlockError):
        system.run()
    assert all(core._decoded for core in system.cores)
    assert system.net._endpoints
    assert "outstanding misses" in diagnostic_dump(system)


# ------------------------------------------------------------- readable

_READ_BACK = ["crossbar", "mesh-8-homes", "rmo/continuous",
              "victim-buffer", "commit-arbitration"]


def _assert_reads_as_returned(system: System, result: SystemResult) -> None:
    assert not any(core._decoded for core in system.cores)  # disconnected
    again = SystemResult(system)
    assert result_fingerprint(again) == result_fingerprint(result)
    assert (again.events, again.cycles) == (result.events, result.cycles)
    assert [c.fused_instructions for c in again.cores] == \
        [c.fused_instructions for c in result.cores]
    words = dict(result.words())
    assert words
    for addr, value in words.items():
        assert system.read_word(addr) == value
    assert system.memory_snapshot() == words
    system.check_swmr()


@pytest.mark.parametrize("name", _READ_BACK)
def test_disconnected_machine_reads_as_its_result(name):
    system, result = _run_locks(CONFIGS[name])
    _assert_reads_as_returned(system, result)


def test_disconnected_fault_and_node_fault_machines_read_as_their_results():
    plan = NodeFaultPlan(seed=0, faults=(NodeFault(1, CRASH, 200),))
    system = System(small_config(4, mode=ON_DEMAND), _LOCKS.programs,
                    _LOCKS.initial_memory,
                    fault_plan=fault_scenarios(seed=0)["drop-retry"],
                    node_plan=plan)
    result = system.run(watchdog=Watchdog(system))
    assert result.crashed_core_ids() == [1]
    _assert_reads_as_returned(system, result)
