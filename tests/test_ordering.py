"""Tests for the per-model ordering checker (SC / TSO / RMO axioms)."""

import pytest

from repro.isa.instructions import FenceKind
from repro.sim.config import ConsistencyModel, SpeculationMode
from repro.system import System
from repro.verification import (
    ConsistencyViolation,
    ExecutionRecorder,
    FenceRecord,
    check_execution,
    check_model_ordering,
)
from repro.verification.recorder import AccessKind, AccessRecord
from repro.workloads import litmus
from tests.conftest import small_config

X, Y = 0x1000, 0x1040

SC = ConsistencyModel.SC
TSO = ConsistencyModel.TSO
RMO = ConsistencyModel.RMO


def rec_with(records, fences=()):
    recorder = ExecutionRecorder()
    recorder.committed = list(records)
    recorder.fences = list(fences)
    return recorder


def W(seq, cycle, core, addr, value, po):
    return AccessRecord(seq, cycle, core, AccessKind.WRITE, addr, value,
                        None, False, po=po)


def R(seq, cycle, core, addr, value, po, forwarded=False):
    return AccessRecord(seq, cycle, core, AccessKind.READ, addr, value,
                        None, False, po=po, forwarded=forwarded)


def sb_relaxed_log():
    """Store-buffering litmus, both loads reading the initial value --
    the textbook outcome SC forbids and TSO/RMO allow."""
    return rec_with([
        R(0, 10, 0, Y, 0, po=2),
        R(1, 11, 1, X, 0, po=2),
        W(2, 20, 0, X, 1, po=1),
        W(3, 21, 1, Y, 2, po=1),
    ])


def mp_relaxed_log():
    """Message-passing litmus: flag observed, data stale -- forbidden
    under SC and TSO, allowed under RMO (no fences)."""
    return rec_with([
        W(0, 10, 0, X, 1, po=1),
        W(1, 11, 0, Y, 2, po=2),
        R(2, 12, 1, Y, 2, po=1),
        R(3, 13, 1, X, 0, po=2),
    ])


class TestStoreBuffering:
    def test_sc_rejects_relaxed_outcome(self):
        with pytest.raises(ConsistencyViolation, match="SC ordering"):
            check_model_ordering(sb_relaxed_log(), SC)

    def test_tso_accepts_relaxed_outcome(self):
        report = check_model_ordering(sb_relaxed_log(), TSO)
        assert report.events == 4
        assert report.locations_skipped == 0

    def test_rmo_accepts_relaxed_outcome(self):
        check_model_ordering(sb_relaxed_log(), RMO)

    def test_cycle_message_names_the_events(self):
        with pytest.raises(ConsistencyViolation,
                           match=r"(?s)--fr-->.*--po-->"):
            check_model_ordering(sb_relaxed_log(), SC)

    def test_storeload_fence_forbids_under_tso(self):
        # W x; MFENCE; R y  ||  W y; MFENCE; R x with both loads stale
        # is forbidden even under TSO.
        log = rec_with([
            R(0, 10, 0, Y, 0, po=3),
            R(1, 11, 1, X, 0, po=3),
            W(2, 20, 0, X, 1, po=1),
            W(3, 21, 1, Y, 2, po=1),
        ], fences=[
            FenceRecord(0, 2, FenceKind.STORE_LOAD, False),
            FenceRecord(1, 2, FenceKind.FULL, False),
        ])
        with pytest.raises(ConsistencyViolation, match="fence"):
            check_model_ordering(log, TSO)

    def test_store_buffering_with_forwarding_allowed_under_tso(self):
        # Each core forwards its own buffered store before reading the
        # other location stale: the classic SB+rfi outcome TSO allows.
        # Internal reads-from must stay out of the global order or this
        # legal execution would be flagged.
        log = rec_with([
            R(0, 5, 0, X, 1, po=2, forwarded=True),
            R(1, 6, 1, Y, 2, po=2, forwarded=True),
            R(2, 10, 0, Y, 0, po=3),
            R(3, 11, 1, X, 0, po=3),
            W(4, 20, 0, X, 1, po=1),
            W(5, 21, 1, Y, 2, po=1),
        ])
        check_model_ordering(log, TSO)
        with pytest.raises(ConsistencyViolation):
            check_model_ordering(log, SC)


class TestMessagePassing:
    def test_sc_and_tso_reject(self):
        for model in (SC, TSO):
            with pytest.raises(ConsistencyViolation):
                check_model_ordering(mp_relaxed_log(), model)

    def test_rmo_accepts_without_fences(self):
        check_model_ordering(mp_relaxed_log(), RMO)

    def test_rmo_rejects_with_correct_fences(self):
        log = rec_with(mp_relaxed_log().committed, fences=[
            FenceRecord(0, 2, FenceKind.STORE_STORE, False),  # between Ws
            FenceRecord(1, 2, FenceKind.LOAD_LOAD, False),    # between Rs
        ])
        # po indices must leave room for the fences.
        log.committed = [
            W(0, 10, 0, X, 1, po=1),
            W(1, 11, 0, Y, 2, po=3),
            R(2, 12, 1, Y, 2, po=1),
            R(3, 13, 1, X, 0, po=3),
        ]
        with pytest.raises(ConsistencyViolation, match="fence"):
            check_model_ordering(log, RMO)

    def test_rmo_accepts_with_wrong_direction_fences(self):
        # StoreLoad fences order neither the W->W nor the R->R pair, so
        # RMO still allows the relaxed outcome.
        log = rec_with([
            W(0, 10, 0, X, 1, po=1),
            W(1, 11, 0, Y, 2, po=3),
            R(2, 12, 1, Y, 2, po=1),
            R(3, 13, 1, X, 0, po=3),
        ], fences=[
            FenceRecord(0, 2, FenceKind.STORE_LOAD, False),
            FenceRecord(1, 2, FenceKind.STORE_LOAD, False),
        ])
        check_model_ordering(log, RMO)

    def test_atomic_is_full_barrier_under_rmo(self):
        # Replacing core 0's fence with an unrelated RMW still forbids
        # the stale read: atomics drain and block under every model.
        log = rec_with([
            W(0, 10, 0, X, 1, po=1),
            AccessRecord(1, 11, 0, AccessKind.RMW, 0x2000, 0, 7, False, po=2),
            W(2, 12, 0, Y, 2, po=3),
            R(3, 13, 1, Y, 2, po=1),
            R(4, 14, 1, X, 0, po=3),
        ], fences=[
            FenceRecord(1, 2, FenceKind.LOAD_LOAD, False),
        ])
        with pytest.raises(ConsistencyViolation, match="atomic"):
            check_model_ordering(log, RMO)


class TestUniproc:
    def test_same_address_po_preserved_under_every_model(self):
        # A core writes then reads back an older value: forbidden under
        # all three models via the per-location program-order edges.
        log = rec_with([
            W(0, 10, 1, X, 5, po=1),
            W(1, 20, 0, X, 1, po=1),
            R(2, 15, 0, X, 5, po=2),
        ])
        for model in (SC, TSO, RMO):
            with pytest.raises(ConsistencyViolation, match="po-loc"):
                check_model_ordering(log, model)


class TestInputValidation:
    def test_missing_po_rejected(self):
        log = rec_with([
            AccessRecord(0, 10, 0, AccessKind.WRITE, X, 1, None, False),
        ])
        with pytest.raises(ValueError, match="program-order"):
            check_model_ordering(log, SC)

    def test_duplicate_po_rejected(self):
        log = rec_with([W(0, 10, 0, X, 1, po=1), W(1, 20, 0, Y, 2, po=1)])
        with pytest.raises(ValueError, match="duplicate"):
            check_model_ordering(log, SC)

    def test_out_of_thin_air_rejected(self):
        log = rec_with([R(0, 10, 0, X, 42, po=1)])
        with pytest.raises(ConsistencyViolation, match="thin-air"):
            check_model_ordering(log, SC)

    def test_duplicate_values_skip_rf_and_are_counted(self):
        log = rec_with([
            W(0, 10, 0, X, 1, po=1),
            W(1, 20, 1, X, 1, po=1),
            R(2, 30, 0, X, 1, po=2),
        ])
        report = check_model_ordering(log, SC)
        assert report.locations_skipped == 1

    def test_initial_values_respected(self):
        log = rec_with([R(0, 10, 0, X, 9, po=1)])
        check_model_ordering(log, SC, initial={X: 9})
        with pytest.raises(ConsistencyViolation):
            check_model_ordering(log, SC, initial={X: 1})


class TestRealExecutions:
    """Instrumented simulator runs must satisfy their own model."""

    @pytest.mark.parametrize("model", list(ConsistencyModel))
    @pytest.mark.parametrize("spec", list(SpeculationMode))
    def test_litmus_workloads_clean(self, model, spec):
        for make in (litmus.store_buffering, litmus.message_passing):
            for fenced in (False, True):
                test = make(fenced)
                programs = test.build([0, 7])
                config = (small_config(test.n_threads)
                          .with_consistency(model).with_speculation(spec))
                system = System(config, programs)
                recorder = ExecutionRecorder.attach(system)
                system.run(check_invariants=True)
                report = check_execution(recorder, model=model)
                assert report["ordering_events"] > 0
                assert report["pending_at_end"] == 0

    def test_fences_recorded_with_program_order(self):
        test = litmus.store_buffering(fenced=True)
        system = System(small_config(2), test.build([0, 0]))
        recorder = ExecutionRecorder.attach(system)
        system.run()
        assert len(recorder.fences) == 2
        for fence in recorder.fences:
            assert fence.po > 0
        check_execution(recorder, model=ConsistencyModel.TSO)


def RMW_(seq, cycle, core, addr, read, written, po):
    return AccessRecord(seq, cycle, core, AccessKind.RMW, addr, read,
                        written, False, po=po)


class TestRMWFenceNeighbors:
    """Satellite audit: fence-class edges with RMW neighbors.

    An RMW is both read-class and write-class (``_READS``,
    ``_WRITES``), so every directional fence must order it on whichever
    side matches -- e.g. a load-load fence must order RMW -> R.  The
    audit found no hole: both classes include RMW, and under RMO a
    single-event RMW is *also* a full atomic hub (and under TSO it sits
    in the read chain), so the ordering is doubly enforced.  These
    hand-built logs lock the combined guarantee; the paired controls
    swap the RMW for a plain access and must check clean, proving the
    violation really hinges on the RMW's dual class membership.
    """

    def test_load_load_fence_orders_rmw_to_read(self):
        # c0: RMW X (reads 3); LL fence; R Y=0(init)
        # c1: W Y=2; RMW X (reads 0, writes 3, co-first)
        # Cycle: RMW(c0) ->fence-> R Y ->fr-> W Y ->atomic-> RMW(c1)
        #        ->co-> RMW(c0): only closes if the LL fence (or the
        #        atomic hub) treats the RMW as a read before it.
        rec = rec_with([
            RMW_(0, 2, 0, X, read=3, written=1, po=0),
            R(1, 0, 0, Y, 0, po=2),
            W(2, 1, 1, Y, 2, po=0),
            RMW_(3, 1, 1, X, read=0, written=3, po=1),
        ], fences=[FenceRecord(0, 1, FenceKind.LOAD_LOAD, False)])
        with pytest.raises(ConsistencyViolation):
            check_model_ordering(rec, ConsistencyModel.RMO)

    def test_plain_write_before_load_load_fence_is_not_ordered(self):
        # Control: same shape, plain W instead of the c0 RMW.  A W is
        # not read-class, so the LL fence orders nothing before it and
        # the outcome is legal under RMO.
        rec = rec_with([
            W(0, 2, 0, X, 1, po=0),
            R(1, 0, 0, Y, 0, po=2),
            W(2, 1, 1, Y, 2, po=0),
            RMW_(3, 1, 1, X, read=0, written=3, po=1),
        ], fences=[FenceRecord(0, 1, FenceKind.LOAD_LOAD, False)])
        check_model_ordering(rec, ConsistencyModel.RMO)

    def test_store_store_fence_orders_rmw_to_write(self):
        # c0: RMW X (reads 4); SS fence; W Y=2
        # c1: RMW Y (reads 2); W X=4 (co-first on X)
        # Cycle: RMW(c0) ->fence-> W Y ->rf-> RMW(c1) ->atomic-> W X
        #        ->co-> RMW(c0): needs the RMW write-class before the
        #        SS fence.
        rec = rec_with([
            RMW_(0, 2, 0, X, read=4, written=1, po=0),
            W(1, 1, 0, Y, 2, po=2),
            RMW_(2, 2, 1, Y, read=2, written=3, po=0),
            W(3, 1, 1, X, 4, po=1),
        ], fences=[FenceRecord(0, 1, FenceKind.STORE_STORE, False)])
        with pytest.raises(ConsistencyViolation):
            check_model_ordering(rec, ConsistencyModel.RMO)

    def test_plain_read_before_store_store_fence_is_not_ordered(self):
        # Control: a plain load is not write-class, so the SS fence
        # orders nothing before it; the same outcome checks clean.
        rec = rec_with([
            R(0, 0, 0, X, 4, po=0),
            W(1, 1, 0, Y, 2, po=2),
            RMW_(2, 2, 1, Y, read=2, written=3, po=0),
            W(3, 1, 1, X, 4, po=1),
        ], fences=[FenceRecord(0, 1, FenceKind.STORE_STORE, False)])
        check_model_ordering(rec, ConsistencyModel.RMO)

    def test_rmw_sits_in_the_tso_read_chain(self):
        # SB built from RMWs instead of stores: forbidden under TSO
        # even with no fences at all, because an RMW is read-class and
        # the read chain preserves its program order (atomics drain the
        # store buffer on the real machine).
        rec = rec_with([
            RMW_(0, 1, 0, X, read=0, written=1, po=0),
            R(1, 0, 0, Y, 0, po=1),
            RMW_(2, 1, 1, Y, read=0, written=2, po=0),
            R(3, 0, 1, X, 0, po=1),
        ])
        with pytest.raises(ConsistencyViolation):
            check_model_ordering(rec, ConsistencyModel.TSO)

    def test_fence_sides_cover_every_kind_exactly(self):
        from repro.verification.ordering import _FENCE_SIDES
        R, W, M = AccessKind.READ, AccessKind.WRITE, AccessKind.RMW
        assert _FENCE_SIDES[FenceKind.LOAD_LOAD] == ({R, M}, {R, M})
        assert _FENCE_SIDES[FenceKind.LOAD_STORE] == ({R, M}, {W, M})
        assert _FENCE_SIDES[FenceKind.STORE_STORE] == ({W, M}, {W, M})
        assert _FENCE_SIDES[FenceKind.STORE_LOAD] == ({W, M}, {R, M})
        assert _FENCE_SIDES[FenceKind.FULL] == ({R, W, M}, {R, W, M})
