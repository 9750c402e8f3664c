"""Tests for the execution recorder and consistency checker."""

import pytest

from repro.isa import Assembler
from repro.sim.config import ConsistencyModel, SpeculationMode
from repro.system import System
from repro.verification import (
    AccessRecord,
    ConsistencyViolation,
    ExecutionRecorder,
    check_execution,
    check_forwarding,
    check_per_location_coherence,
    check_read_provenance,
    check_rmw_atomicity,
)
from repro.verification.recorder import AccessKind
from repro.workloads import locks, randmix
from repro.workloads.tasks import work_stealing
from tests.conftest import small_config

X = 0x1000


def record_run(programs, config=None, initial_memory=None):
    system = System(config or small_config(len(programs)), programs,
                    initial_memory)
    recorder = ExecutionRecorder.attach(system)
    result = system.run(check_invariants=True)
    return system, recorder, result


class TestRecorder:
    def test_records_reads_and_writes(self):
        asm = Assembler("t")
        asm.li(1, X).li(2, 7)
        asm.store(2, base=1)
        asm.exec_(100)
        asm.load(3, base=1)
        _, recorder, _ = record_run([asm.build()])
        kinds = [r.kind for r in recorder.sorted_log() if r.addr == X]
        assert AccessKind.WRITE in kinds
        assert AccessKind.READ in kinds

    def test_records_rmw_with_loaded_and_written(self):
        asm = Assembler("t")
        asm.li(1, X).li(2, 5)
        asm.fetch_add(3, base=1, addend=2)
        _, recorder, _ = record_run([asm.build()])
        rmw = [r for r in recorder.sorted_log()
               if r.kind is AccessKind.RMW][0]
        assert rmw.value == 0
        assert rmw.written == 5

    def test_failed_cas_records_no_write(self):
        asm = Assembler("t")
        asm.li(1, X).li(2, 99).li(3, 1)
        asm.cas(4, base=1, expected=2, new=3)  # expected 99, actual 0: fail
        _, recorder, _ = record_run([asm.build()])
        rmw = [r for r in recorder.sorted_log()
               if r.kind is AccessKind.RMW][0]
        assert rmw.written is None
        assert not rmw.is_write

    def test_forwarded_loads_recorded_and_tagged(self):
        asm = Assembler("t")
        asm.li(1, X).li(2, 7)
        asm.store(2, base=1)
        asm.load(3, base=1)  # forwarded under TSO: bypasses the L1
        _, recorder, result = record_run([asm.build()])
        assert result.core_reg(0, 3) == 7
        reads = [r for r in recorder.sorted_log()
                 if r.kind is AccessKind.READ and r.addr == X]
        assert len(reads) == 1
        assert reads[0].forwarded
        assert reads[0].value == 7
        assert reads[0].po >= 0
        # Non-forwarded records stay untagged.
        write = [r for r in recorder.sorted_log()
                 if r.kind is AccessKind.WRITE and r.addr == X][0]
        assert not write.forwarded
        assert write.po >= 0

    def test_rolled_back_accesses_discarded(self):
        """Speculative accesses of an aborted episode never enter the
        committed log."""
        from repro.isa import FenceKind
        COLD = 0x20000
        victim = Assembler("victim")
        victim.li(1, X)
        victim.load(3, base=1)
        victim.exec_(300)
        victim.li(1, COLD).li(2, 1)
        victim.store(2, base=1)
        victim.fence(FenceKind.FULL)
        victim.li(1, X)
        victim.load(4, base=1)     # speculative, will be rolled back
        victim.exec_(200)
        attacker = Assembler("attacker")
        attacker.exec_(380)
        attacker.li(1, X).li(2, 55)
        attacker.store(2, base=1)
        config = small_config(2).with_speculation(SpeculationMode.ON_DEMAND)
        _, recorder, result = record_run([victim.build(), attacker.build()],
                                         config=config)
        if result.violations():
            assert recorder.discarded > 0
        check_execution(recorder)

    def test_log_sorted_by_cycle(self):
        wl = locks.lock_contention(2, increments=4, think_cycles=3)
        _, recorder, _ = record_run(wl.programs)
        cycles = [r.cycle for r in recorder.sorted_log()]
        assert cycles == sorted(cycles)


class TestCheckerPositive:
    """Real executions must pass every axiom."""

    @pytest.mark.parametrize("model", list(ConsistencyModel))
    @pytest.mark.parametrize("spec", list(SpeculationMode))
    def test_lock_workload_clean(self, model, spec):
        wl = locks.lock_contention(3, increments=5, think_cycles=3)
        config = (small_config(3).with_consistency(model)
                  .with_speculation(spec))
        _, recorder, result = record_run(wl.programs, config=config)
        wl.check(result)
        report = check_execution(recorder)
        assert report["rmws_checked"] > 0
        assert report["accesses_recorded"] > 0

    def test_work_stealing_clean(self):
        wl = work_stealing(3, tasks_per_thread=5)
        config = small_config(3).with_speculation(SpeculationMode.CONTINUOUS)
        _, recorder, result = record_run(wl.programs, config=config,
                                         initial_memory=wl.initial_memory)
        wl.check(result)
        check_execution(recorder, initial=wl.initial_memory)

    def test_racy_random_mix_clean(self):
        wl = randmix.random_mix(3, n_instructions=80, seed=5, shared_words=4,
                                pct_atomic=0.1)
        config = small_config(3).with_speculation(SpeculationMode.ON_DEMAND)
        _, recorder, _ = record_run(wl.programs, config=config)
        check_execution(recorder)


class TestCheckerNegative:
    """Hand-built corrupt logs must be rejected."""

    def _recorder_with(self, records):
        recorder = ExecutionRecorder()
        recorder.committed = list(records)
        return recorder

    def test_out_of_thin_air_read_detected(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False),
            AccessRecord(1, 20, 1, AccessKind.READ, X, 42, None, False),
        ])
        with pytest.raises(ConsistencyViolation, match="no write"):
            check_read_provenance(recorder)

    def test_backwards_read_detected(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False),
            AccessRecord(1, 20, 0, AccessKind.WRITE, X, 2, None, False),
            AccessRecord(2, 30, 1, AccessKind.READ, X, 2, None, False),
            AccessRecord(3, 40, 1, AccessKind.READ, X, 1, None, False),
        ])
        with pytest.raises(ConsistencyViolation, match="backwards"):
            check_per_location_coherence(recorder)

    def test_torn_rmw_detected(self):
        # The RMW loaded 0 but a write of 5 precedes it in coherence order.
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 5, None, False),
            AccessRecord(1, 20, 1, AccessKind.RMW, X, 0, 1, False),
        ])
        with pytest.raises(ConsistencyViolation, match="atomicity"):
            check_rmw_atomicity(recorder)

    def test_initial_values_respected(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.READ, X, 9, None, False),
        ])
        check_read_provenance(recorder, initial={X: 9})
        with pytest.raises(ConsistencyViolation):
            check_read_provenance(recorder, initial={X: 1})

    def test_duplicate_values_skip_coherence_check(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False),
            AccessRecord(1, 20, 0, AccessKind.WRITE, X, 1, None, False),
        ])
        assert check_per_location_coherence(recorder) == (0, 1)

    def test_skipped_locations_surface_in_report(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False),
            AccessRecord(1, 20, 0, AccessKind.WRITE, X, 1, None, False),
            AccessRecord(2, 30, 0, AccessKind.WRITE, X + 8, 2, None, False),
        ])
        report = check_execution(recorder)
        assert report["locations_skipped"] == 1
        assert report["locations_coherence_checked"] == 1

    def test_successful_rmw_advances_observer_horizon(self):
        # Regression: the observer's horizon must advance to the RMW's
        # *own* write, so a later read of the value the RMW consumed is
        # flagged as going backwards.
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False),
            AccessRecord(1, 20, 1, AccessKind.RMW, X, 1, 2, False),
            AccessRecord(2, 30, 1, AccessKind.READ, X, 1, None, False),
        ])
        with pytest.raises(ConsistencyViolation, match="backwards"):
            check_per_location_coherence(recorder)

    def test_failed_rmw_does_not_advance_horizon(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False),
            AccessRecord(1, 20, 1, AccessKind.RMW, X, 1, None, False),
            AccessRecord(2, 30, 1, AccessKind.READ, X, 1, None, False),
        ])
        check_per_location_coherence(recorder)


class TestForwardingChecks:
    def _recorder_with(self, records):
        recorder = ExecutionRecorder()
        recorder.committed = list(records)
        return recorder

    def test_stale_forward_detected(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False, po=1),
            AccessRecord(1, 11, 0, AccessKind.WRITE, X, 2, None, False, po=2),
            AccessRecord(2, 5, 0, AccessKind.READ, X, 1, None, False,
                         po=3, forwarded=True),
        ])
        with pytest.raises(ConsistencyViolation, match="stale"):
            check_forwarding(recorder)

    def test_forward_without_earlier_store_detected(self):
        recorder = self._recorder_with([
            AccessRecord(0, 5, 0, AccessKind.READ, X, 1, None, False,
                         po=1, forwarded=True),
            AccessRecord(1, 10, 0, AccessKind.WRITE, X, 1, None, False, po=2),
        ])
        with pytest.raises(ConsistencyViolation, match="no earlier"):
            check_forwarding(recorder)

    def test_correct_forward_passes(self):
        recorder = self._recorder_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False, po=1),
            AccessRecord(1, 5, 0, AccessKind.READ, X, 1, None, False,
                         po=2, forwarded=True),
        ])
        assert check_forwarding(recorder) == 1

    def test_forwarded_record_without_po_rejected(self):
        recorder = self._recorder_with([
            AccessRecord(0, 5, 0, AccessKind.READ, X, 1, None, False,
                         forwarded=True),
        ])
        with pytest.raises(ValueError, match="program-order"):
            check_forwarding(recorder)


class TestRecorderBookkeeping:
    def test_pending_at_end_raises(self):
        recorder = ExecutionRecorder()
        recorder.on_access(10, 0, AccessKind.WRITE, X, 1, None,
                           speculative=False, po=1)
        recorder.on_access(20, 0, AccessKind.READ, X, 1, None,
                           speculative=True, po=2)
        assert recorder.pending_count == 1
        with pytest.raises(ConsistencyViolation, match="pending"):
            check_execution(recorder)

    def test_pending_fences_counted(self):
        from repro.isa import FenceKind
        recorder = ExecutionRecorder()
        recorder.on_fence(0, 1, FenceKind.FULL, speculative=True)
        assert recorder.pending_count == 1
        recorder.on_commit(0)
        assert recorder.pending_count == 0
        assert len(recorder.fences) == 1

    def test_rollback_discards_pending_fences_silently(self):
        from repro.isa import FenceKind
        recorder = ExecutionRecorder()
        recorder.on_access(10, 0, AccessKind.READ, X, 0, None,
                           speculative=True, po=1)
        recorder.on_fence(0, 2, FenceKind.FULL, speculative=True)
        recorder.on_rollback(0)
        assert recorder.pending_count == 0
        assert recorder.discarded == 1  # fences are not accesses
        assert recorder.fences == []

    def test_single_sort_per_full_check(self):
        # Regression: sorted_log() used to re-sort on every call; the
        # cache makes a whole check_execution pass cost exactly one sort.
        asm = Assembler("t")
        asm.li(1, X).li(2, 7)
        asm.store(2, base=1)
        asm.exec_(100)
        asm.load(3, base=1)
        _, recorder, _ = record_run([asm.build()])
        assert recorder.sorts_performed == 0
        check_execution(recorder)
        assert recorder.sorts_performed == 1

    def test_sorted_cache_invalidated_on_append(self):
        recorder = ExecutionRecorder()
        recorder.on_access(10, 0, AccessKind.WRITE, X, 1, None,
                           speculative=False, po=1)
        first = recorder.sorted_log()
        assert len(first) == 1
        recorder.on_access(5, 0, AccessKind.WRITE, X, 2, None,
                           speculative=False, po=2)
        second = recorder.sorted_log()
        assert [r.cycle for r in second] == [5, 10]
        assert recorder.sorts_performed == 2
