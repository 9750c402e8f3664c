"""One simulation per machine in the fuzzer.

On this in-order core with a FIFO store buffer an RMO case builds its
TSO twin's machine (:func:`repro.consistency.canonical_model`), so
:func:`repro.verification.fuzz.execute_case` lets the second of the two
take the first's finished run.  ``tests/test_fuzz_goldens.py`` then sees
its RMO cases served from their TSO twins, so the oracle here runs every
RMO case of that grid fresh, next to its twin, without going through
``execute_case``.  The remaining tests pin the sharing itself: which
cases share, how many machines a campaign simulates, the table's bound,
and that a shared ``System`` cannot run again.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults.watchdog import Watchdog
from repro.harness.parallel import result_fingerprint
from repro.sim.config import ConsistencyModel
from repro.sim.engine import SimulationError
from repro.system import System, SystemResult
from repro.verification import fuzz
from repro.verification.checker import check_execution
from repro.verification.recorder import ExecutionRecorder
from repro.workloads.randmix import compile_litmus_ops
from tests.test_fuzz_goldens import fuzz_golden_cases, golden_points

SC, TSO, RMO = ConsistencyModel.SC, ConsistencyModel.TSO, ConsistencyModel.RMO

_GRID = fuzz_golden_cases()
_RMO_CASES = [(label, case) for label, case in _GRID if case.model is RMO]


def _run_fresh(case):
    """Build and run ``case`` through ``System`` alone: no twin table."""
    programs = compile_litmus_ops(case.threads, skews=case.skews or None)
    config = fuzz.fuzz_config(case.n_threads, case.model, case.spec)
    if not case.superblocks:
        config = config.with_superblocks(False)
    system = System(config, programs, fault_plan=case.fault_plan)
    recorder = ExecutionRecorder.attach(system)
    watchdog = Watchdog(system) if system.fault_plan is not None else None
    result = system.run(check_invariants=True,
                        max_cycles=fuzz.FUZZ_MAX_CYCLES, watchdog=watchdog)
    return result, recorder


def _observed(result, recorder):
    return {"fingerprint": result_fingerprint(result),
            "events": result.events, "cycles": result.cycles,
            "committed": recorder.committed, "fences": recorder.fences,
            "rmo_report": check_execution(recorder, model=RMO)}


def test_oracle_grid_spans_programs_modes_skews_and_plans():
    labels = [label.split("/") for label, _ in _RMO_CASES]
    assert {parts[0] for parts in labels} >= {"p0", "p1", "p2"}
    assert {parts[2] for parts in labels} == {
        spec.value for spec in fuzz.SWEEP_SPECS}
    assert {parts[3] for parts in labels} == {"k0", "k1"}
    assert {parts[4] for parts in labels} == {"clean", "drop-retry"}


@pytest.mark.parametrize("label,case", _RMO_CASES,
                         ids=[label for label, _ in _RMO_CASES])
def test_every_rmo_case_simulates_like_its_tso_twin(label, case):
    rmo = _observed(*_run_fresh(case))
    tso = _observed(*_run_fresh(replace(case, model=TSO)))
    assert rmo == tso, f"{label}: RMO no longer builds TSO's machine"
    assert rmo["committed"] and rmo["rmo_report"]["ordering_events"] > 0


# --------------------------------------------------------------- sharing

@pytest.fixture
def simulated(monkeypatch):
    """Cases whose machine ``execute_case`` really simulated, in order,
    starting from an empty twin table; also checks the table's bound
    at every simulation."""
    fuzz._twins.clear()
    runs = []
    real = fuzz._simulate

    def counting(case, config):
        assert len(fuzz._twins) <= fuzz.TWIN_TABLE_SIZE
        runs.append(case)
        return real(case, config)

    monkeypatch.setattr(fuzz, "_simulate", counting)
    yield runs
    fuzz._twins.clear()


def test_a_campaign_simulates_each_machine_once_per_pass(simulated):
    rmo_cases = len(_RMO_CASES)
    for _ in range(2):
        before = len(simulated)
        for label, case in _GRID:
            assert SystemResult(fuzz.execute_case(case)[0]).events == \
                golden_points()[label]["events"]
            assert len(fuzz._twins) <= fuzz.TWIN_TABLE_SIZE
        # Nothing carries over from one pass to the next.
        assert len(simulated) - before == len(_GRID) - rmo_cases
        assert not fuzz._twins
    assert all(case.model is not RMO for case in simulated)


def test_fuzz_sweep_reaches_the_sharing(simulated):
    report = fuzz.fuzz_sweep(n_programs=3, seed=0, ops_per_thread=6)
    assert report.cases_run == 54 and report.clean
    assert len(simulated) == 54 - 18
    assert not fuzz._twins


def test_tso_and_rmo_share_a_machine_and_sc_does_not(simulated,
                                                     monkeypatch):
    checked = []
    real_check = fuzz.check_execution

    def check(recorder, model=None):
        checked.append(model)
        return real_check(recorder, model=model)

    monkeypatch.setattr(fuzz, "check_execution", check)
    case = dict(_GRID)["p0/tso/on-demand/k1/drop-retry"]
    tso_system, _ = fuzz.execute_case(case)
    sc_system, _ = fuzz.execute_case(replace(case, model=SC))
    assert len(simulated) == 2 and sc_system.sim is not tso_system.sim
    assert len(fuzz._twins) == 1  # TSO's run is held; SC's never is
    rmo_system, _ = fuzz.execute_case(replace(case, model=RMO))
    assert len(simulated) == 2 and not fuzz._twins
    assert rmo_system.sim is tso_system.sim
    assert rmo_system.stats is tso_system.stats
    assert tso_system.config.core.consistency is TSO
    assert rmo_system.config.core.consistency is RMO
    assert rmo_system.config == fuzz.fuzz_config(2, RMO, case.spec)
    assert checked == [TSO, SC, RMO]  # each checked under its own model
    fuzz.execute_case(replace(case, model=SC))
    assert len(simulated) == 3


def test_a_twin_after_eviction_simulates_again(simulated):
    firsts = [case for _, case in _GRID
              if case.model is TSO][:fuzz.TWIN_TABLE_SIZE + 1]
    for case in firsts:
        fuzz.execute_case(case)
    assert len(fuzz._twins) == fuzz.TWIN_TABLE_SIZE
    fuzz.execute_case(replace(firsts[-1], model=RMO))  # still held
    assert len(simulated) == len(firsts)
    fuzz.execute_case(replace(firsts[0], model=RMO))  # pushed out first
    assert len(simulated) == len(firsts) + 1


def test_the_key_is_the_case_without_its_model_and_seed(simulated):
    grid = dict(_GRID)
    case = grid["p1/tso/none/k0/clean"]
    rmo = replace(case, model=RMO, seed=case.seed + 1)
    others = [replace(rmo, skews=(case.skews[0] + 1,) + case.skews[1:]),
              replace(rmo, spec=grid["p1/tso/continuous/k0/clean"].spec),
              replace(rmo, fault_plan=grid[
                  "p1/tso/none/k0/drop-retry"].fault_plan),
              replace(rmo, superblocks=False),
              replace(rmo, inject="sc-load-no-drain")]
    fuzz.execute_case(case)
    for other in others:
        fuzz.execute_case(other)
    assert len(simulated) == 1 + len(others)
    fuzz.execute_case(rmo)  # another seed, and still the same machine
    assert len(simulated) == 1 + len(others)


def test_a_system_runs_once():
    # With twins sharing one machine, a second run by either caller
    # would change what the other holds.
    case = dict(_GRID)["p0/tso/none/k0/drop-retry"]
    result, _ = _run_fresh(case)
    assert result.events == golden_points()[
        "p0/tso/none/k0/drop-retry"]["events"]
    system, _ = fuzz.execute_case(case)
    with pytest.raises(SimulationError, match="runs once"):
        system.run()
    assert system.sim.events_dispatched == result.events
    assert result_fingerprint(SystemResult(system)) == \
        result_fingerprint(result)
