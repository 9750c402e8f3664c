"""Tests for the consistency fuzzer: sweep, injection, shrinking,
reproducers."""

import os
import subprocess
import sys

import pytest

from repro.isa.interpreter import superblock_spans
from repro.sim.config import ConsistencyModel, SpeculationMode
from repro.workloads.randmix import (
    MemOp,
    compile_litmus_ops,
    litmus_addr,
    litmus_instruction_count,
    random_litmus_ops,
)
from repro.verification.fuzz import (
    FuzzCase,
    _violation_of,
    fuzz_sweep,
    run_case,
    shrink_case,
    write_reproducer,
)
from tests.test_fuzz_goldens import fuzz_golden_cases

SC = ConsistencyModel.SC
TSO = ConsistencyModel.TSO
RMO = ConsistencyModel.RMO


class TestLitmusIR:
    def test_litmus_programs_have_no_spans(self):
        """Litmus programs, skews included, are straight-line: no fuzz
        case has a loop span, so none fuses."""
        for _label, case in fuzz_golden_cases():
            for program in compile_litmus_ops(case.threads,
                                              skews=case.skews or None):
                assert superblock_spans(program) == ()

    def test_written_values_globally_unique(self):
        threads = random_litmus_ops(3, 20, seed=7)
        values = [op.value for ops in threads for op in ops
                  if op.kind in ("store", "swap")]
        assert values, "generator produced no writes"
        assert len(set(values)) == len(values)
        assert 0 not in values  # never collides with the initial value

    def test_compiles_and_counts(self):
        threads = random_litmus_ops(2, 10, seed=3)
        programs = compile_litmus_ops(threads, skews=[5, 0])
        assert len(programs) == 2
        # skew padding + per-op instructions + HALT
        assert (len(programs[0].instructions)
                == 1 + litmus_instruction_count([threads[0]]) + 1)

    def test_seed_determinism(self):
        assert random_litmus_ops(2, 12, seed=9) == random_litmus_ops(
            2, 12, seed=9)
        assert random_litmus_ops(2, 12, seed=9) != random_litmus_ops(
            2, 12, seed=10)


class TestCleanSweep:
    """The faithful machine must fuzz clean: speculation is invisible."""

    def test_seeded_smoke_all_models_and_specs(self):
        report = fuzz_sweep(n_programs=3, seed=0, ops_per_thread=6)
        # 3 programs x 3 models x 3 spec modes x 2 skew sets
        assert report.cases_run == 54
        assert report.checks_passed == 54
        assert report.clean

    def test_three_threads_clean(self):
        report = fuzz_sweep(n_programs=2, seed=11, n_threads=3,
                            ops_per_thread=5, skew_variants=1)
        assert report.clean


class TestInjection:
    """A deliberately broken machine must be caught and minimized."""

    def test_sc_load_no_drain_caught_and_shrunk(self):
        report = fuzz_sweep(n_programs=10, seed=1, ops_per_thread=8,
                            models=[SC], inject="sc-load-no-drain")
        assert report.failures, "injected SC bug was not caught"
        failure = report.failures[0]
        assert failure.shrunk.instruction_count() <= 10
        assert "violated" in failure.message

    def test_stale_forward_caught(self):
        report = fuzz_sweep(n_programs=20, seed=2, ops_per_thread=10,
                            models=[TSO], inject="stale-forward")
        assert report.failures, "injected forwarding bug was not caught"
        assert "stale" in report.failures[0].message

    @pytest.mark.parametrize("models", [[RMO], [TSO, RMO]],
                             ids=["rmo-alone", "rmo-after-tso"])
    def test_stale_forward_caught_under_rmo(self, models):
        # RMO runs TSO's machine: alone each RMO case simulates, after
        # TSO it takes its twin's run; either way it carries the defect.
        report = fuzz_sweep(n_programs=20, seed=2, ops_per_thread=10,
                            models=models, inject="stale-forward",
                            shrink=False, stop_after=None)
        caught = {model: {(f.case.threads, f.case.spec, f.case.skews)
                          for f in report.failures if f.case.model is model}
                  for model in models}
        assert caught[RMO], "injected forwarding bug was not caught"
        assert all("stale" in f.message for f in report.failures)
        assert all(found == caught[RMO] for found in caught.values())

    def test_unknown_injection_rejected(self):
        case = FuzzCase(threads=((MemOp("load", addr=litmus_addr(0)),),),
                        model=SC, spec=SpeculationMode.NONE,
                        inject="no-such-knob")
        with pytest.raises(ValueError, match="unknown injection"):
            run_case(case)


class TestShrinker:
    def golden_case(self):
        """A hand-planted stale-read bug buried in chaff: with SC loads
        no longer draining the store buffer, thread 0's read-back of its
        own store races thread 1's write and observes a stale value."""
        x, z = litmus_addr(1), litmus_addr(2)
        threads = (
            (MemOp("delay", cycles=6), MemOp("load", addr=x),
             MemOp("store", addr=x, value=1), MemOp("load", addr=x),
             MemOp("load", addr=z), MemOp("delay", cycles=3)),
            (MemOp("load", addr=z), MemOp("store", addr=x, value=6),
             MemOp("delay", cycles=2)),
        )
        return FuzzCase(threads=threads, model=SC,
                        spec=SpeculationMode.CONTINUOUS, skews=(3, 0),
                        seed=99, inject="sc-load-no-drain")

    def test_golden_shrink_to_litmus_size(self):
        case = self.golden_case()
        assert _violation_of(case) is not None, "planted bug not visible"
        shrunk = shrink_case(case)
        assert _violation_of(shrunk) is not None
        assert shrunk.instruction_count() <= 6
        # The essential ops survived: the racing store and a load.
        kinds = [op.kind for ops in shrunk.threads for op in ops]
        assert "store" in kinds and "load" in kinds

    def test_shrink_preserves_value_uniqueness(self):
        shrunk = shrink_case(self.golden_case())
        values = [op.value for ops in shrunk.threads for op in ops
                  if op.kind in ("store", "swap")]
        assert len(set(values)) == len(values)


class TestReproducer:
    def test_script_replays_violation(self, tmp_path):
        shrunk = shrink_case(TestShrinker().golden_case())
        path = write_reproducer(shrunk, str(tmp_path / "repro_golden.py"))
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run([sys.executable, path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "violation reproduced" in proc.stdout

    def test_clean_case_reports_no_violation(self, tmp_path):
        threads = random_litmus_ops(2, 4, seed=5)
        case = FuzzCase(threads=tuple(tuple(t) for t in threads),
                        model=TSO, spec=SpeculationMode.NONE)
        path = write_reproducer(case, str(tmp_path / "repro_clean.py"))
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run([sys.executable, path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no violation" in proc.stdout


class TestSpeculativeForwardReadSet:
    """Regression: the first faithful-machine bug the fuzzer found.

    A speculative load that forwards from the store buffer never touches
    the L1, so it used to leave no SR bit -- a remote write to that block
    before commit slipped past conflict detection, and the episode
    committed a post-fence load that had read its own pre-fence buffered
    store even though another core overwrote the location in between (a
    genuine TSO violation; found by the deep sweep at seed 1002).  The
    forwarded load must join the speculative read set so the remote
    write aborts the episode.
    """

    def _system(self):
        from repro.system import System
        from repro.verification.fuzz import fuzz_config

        a, b, c = litmus_addr(1), litmus_addr(2), litmus_addr(0)
        threads = (
            # t0 buffers four stores, speculates through the FULL fence
            # and forwards b=3 from its own buffer into the post-fence
            # load while the stores are still draining.
            (MemOp("store", addr=a, value=1), MemOp("store", addr=b, value=3),
             MemOp("store", addr=c, value=4), MemOp("store", addr=c, value=5),
             MemOp("fence"), MemOp("load", addr=b)),
            # t1 overwrites b during that window: t0's forwarded value is
            # now order-visible, so the episode must abort.
            (MemOp("load", addr=a), MemOp("load", addr=b),
             MemOp("store", addr=b, value=9), MemOp("load", addr=c),
             MemOp("store", addr=c, value=10)),
        )
        programs = compile_litmus_ops(threads, skews=[11, 11])
        config = fuzz_config(2, TSO, SpeculationMode.ON_DEMAND)
        return System(config, programs)

    def test_remote_write_to_forwarded_block_aborts_episode(self):
        from repro.verification.checker import check_execution
        from repro.verification.recorder import ExecutionRecorder

        system = self._system()
        recorder = ExecutionRecorder.attach(system)
        system.run(check_invariants=True)
        # The conflict is detected (exactly one abort on the forwarding
        # core) and the re-executed load reads the remote value, so the
        # committed execution satisfies TSO.
        assert system.stats.value(
            "spec.0.violations.external-invalidation") == 1
        check_execution(recorder, model=TSO)
        final_load = [r for r in recorder.committed
                      if r.core == 0 and r.is_read and r.addr == litmus_addr(2)]
        assert final_load and final_load[-1].value == 9
        assert not final_load[-1].forwarded


class TestVacuousnessGuard:
    def test_duplicate_written_values_rejected(self):
        x = litmus_addr(0)
        case = FuzzCase(
            threads=((MemOp("store", addr=x, value=1),),
                     (MemOp("store", addr=x, value=1),)),
            model=TSO, spec=SpeculationMode.NONE)
        with pytest.raises(RuntimeError, match="duplicate written values"):
            run_case(case)

    def test_report_counts_are_nonvacuous(self):
        threads = random_litmus_ops(2, 8, seed=4)
        case = FuzzCase(threads=tuple(tuple(t) for t in threads),
                        model=TSO, spec=SpeculationMode.ON_DEMAND)
        report = run_case(case)
        assert report["locations_skipped"] == 0
        assert report["ordering_events"] > 0
        assert report["pending_at_end"] == 0


class TestHarnessExperiment:
    def test_e11_runs_and_is_clean(self):
        from repro.harness import e11_consistency_fuzz
        result = e11_consistency_fuzz(n_programs=2)
        faithful = [row for row in result.rows if row[0] == "faithful"]
        assert len(faithful) == len(ConsistencyModel)
        assert all(row[3] == 0 for row in faithful)
        broken = [row for row in result.rows if row[0].startswith("broken")]
        assert all(row[3] > 0 for row in broken)

    def test_e12_runs_and_is_clean(self):
        from repro.harness import e12_fault_injection
        result = e12_fault_injection(n_programs=2)
        assert all(row[2] == row[3] for row in result.rows)  # runs == passed
        faulty = [row for row in result.rows if row[0] != "none"]
        assert sum(row[6] for row in faulty) > 0  # faults really injected


class TestFaultPlanAxis:
    """Satellite: the fuzzer sweeps fault plans and reproducers replay them."""

    def _plan(self):
        from repro.faults import fault_scenarios
        return fault_scenarios(seed=6)["storm"]

    def test_fault_plans_axis_multiplies_cases_and_stays_clean(self):
        plans = [None, self._plan()]
        baseline = fuzz_sweep(n_programs=2, seed=21, ops_per_thread=5,
                              models=[TSO], skew_variants=1)
        report = fuzz_sweep(n_programs=2, seed=21, ops_per_thread=5,
                            models=[TSO], skew_variants=1,
                            fault_plans=plans)
        assert report.cases_run == 2 * baseline.cases_run
        assert report.clean

    def test_describe_names_the_plan(self):
        case = FuzzCase(threads=((MemOp("load", addr=litmus_addr(0)),),),
                        model=TSO, spec=SpeculationMode.NONE,
                        fault_plan=self._plan())
        assert "faults[" in case.describe()
        assert "seed=6" in case.describe()

    def test_shrinking_preserves_the_fault_plan(self):
        from dataclasses import replace
        plan = self._plan()
        case = replace(TestShrinker().golden_case(), fault_plan=plan)
        if _violation_of(case) is None:
            pytest.skip("planted bug masked by this fault timing")
        shrunk = shrink_case(case)
        assert shrunk.fault_plan == plan
        assert _violation_of(shrunk) is not None

    def test_reproducer_replays_the_fault_plan(self, tmp_path):
        threads = random_litmus_ops(2, 4, seed=8)
        case = FuzzCase(threads=tuple(tuple(t) for t in threads),
                        model=TSO, spec=SpeculationMode.CONTINUOUS,
                        fault_plan=self._plan())
        path = write_reproducer(case, str(tmp_path / "repro_faulty.py"))
        with open(path) as fh:
            text = fh.read()
        assert "from repro.faults import FaultPlan" in text
        assert "fault_plan=FaultPlan(" in text
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run([sys.executable, path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no violation" in proc.stdout


class TestReproducerFidelity:
    """Reproducers must carry every FuzzCase axis: a violation found
    under a fault plan is replayed under the same plan, and the written
    script demands the nonzero exit."""

    def _golden(self, **overrides):
        from dataclasses import replace
        return replace(TestShrinker().golden_case(), **overrides)

    def _exec(self, case, tmp_path, name):
        path = write_reproducer(case, str(tmp_path / name))
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.run([sys.executable, path], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_round_trip_with_fault_plan_still_fails(self, tmp_path):
        from repro.faults import fault_scenarios
        case = self._golden(fault_plan=fault_scenarios(seed=6)["storm"])
        if _violation_of(case) is None:
            pytest.skip("planted bug masked by this fault timing")
        proc = self._exec(case, tmp_path, "repro_storm.py")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "violation reproduced" in proc.stdout


class TestShrinkBudget:
    def test_shrinker_never_exceeds_its_budget(self, monkeypatch):
        # Regression: the thread-drop pass ignored the cap mid-pass and
        # the comparison was off by one, so a small max_runs used to buy
        # strictly more simulations than it named.
        import repro.verification.fuzz as fuzz_mod
        real = fuzz_mod._violation_of
        calls = []

        def counting(case):
            calls.append(case)
            return real(case)

        monkeypatch.setattr(fuzz_mod, "_violation_of", counting)
        shrink_case(TestShrinker().golden_case(), max_runs=3)
        assert len(calls) <= 3
