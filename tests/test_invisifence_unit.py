"""Unit tests for the InvisiFence controller, checkpoints, and storage model."""

import pytest

from repro.coherence.l1 import ViolationReason
from repro.core.checkpoint import Checkpoint
from repro.core.invisifence import InvisiFenceController, SpecState, SpecTrigger
from repro.core.storage import (
    CHECKPOINT_BITS,
    StorageModel,
    invisifence_storage_bits,
    per_store_storage_bits,
)
from repro.sim.config import CacheConfig, SpeculationConfig, SpeculationMode
from repro.sim.stats import StatsRegistry


def make_controller(**kwargs):
    defaults = dict(mode=SpeculationMode.ON_DEMAND, conservative_window=8,
                    max_rollbacks_before_stall=2)
    defaults.update(kwargs)
    config = SpeculationConfig(**defaults)
    return InvisiFenceController(config, StatsRegistry(), core_id=0)


def ckpt(pc=5, cycle=0, instr=0):
    return Checkpoint(pc, cycle, instr)


class TestLifecycle:
    def test_initial_state(self):
        ctrl = make_controller()
        assert ctrl.state is SpecState.IDLE
        assert not ctrl.active
        assert ctrl.can_speculate()

    def test_enter_activates(self):
        ctrl = make_controller()
        ctrl.enter(ckpt(), SpecTrigger.FENCE)
        assert ctrl.active
        assert not ctrl.can_speculate()
        assert ctrl.trigger is SpecTrigger.FENCE
        assert ctrl.stat_episodes.value == 1

    def test_double_enter_rejected(self):
        ctrl = make_controller()
        ctrl.enter(ckpt(), SpecTrigger.FENCE)
        with pytest.raises(RuntimeError):
            ctrl.enter(ckpt(), SpecTrigger.ATOMIC)

    def test_commit_returns_to_idle(self):
        ctrl = make_controller()
        ctrl.enter(ckpt(cycle=100), SpecTrigger.FENCE)
        ctrl.commit(now=150, footprint_blocks=3)
        assert not ctrl.active
        assert ctrl.stat_commits.value == 1
        assert ctrl.checkpoint is None
        assert ctrl.can_speculate()

    def test_commit_without_active_rejected(self):
        with pytest.raises(RuntimeError):
            make_controller().commit(now=1, footprint_blocks=0)

    def test_violation_returns_checkpoint(self):
        ctrl = make_controller()
        taken = ckpt(pc=9)
        ctrl.enter(taken, SpecTrigger.ATOMIC)
        restored = ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=120)
        assert restored is taken
        assert not ctrl.active
        assert ctrl.stat_violations.value == 1

    def test_violation_without_active_rejected(self):
        with pytest.raises(RuntimeError):
            make_controller().on_violation(
                ViolationReason.EXTERNAL_INVALIDATION, now=1)

    def test_violation_reason_stats(self):
        ctrl = make_controller()
        ctrl.enter(ckpt(), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.CAPACITY_EVICTION, now=10)
        assert ctrl.stat_violations_by_reason[
            ViolationReason.CAPACITY_EVICTION].value == 1


class TestConservativeWindow:
    def test_violation_opens_window(self):
        ctrl = make_controller(conservative_window=8)
        ctrl.enter(ckpt(), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=10)
        assert ctrl.conservative
        assert not ctrl.can_speculate()

    def test_window_counts_down_by_instructions(self):
        ctrl = make_controller(conservative_window=3)
        ctrl.enter(ckpt(), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=10)
        for _ in range(3):
            assert ctrl.conservative
            ctrl.note_instruction()
        assert not ctrl.conservative
        assert ctrl.can_speculate()

    def test_repeated_violations_escalate(self):
        ctrl = make_controller(conservative_window=4, max_rollbacks_before_stall=2)
        # First violation at pc=5: base window.
        ctrl.enter(ckpt(pc=5), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=10)
        assert ctrl._conservative_remaining == 4
        for _ in range(4):
            ctrl.note_instruction()
        # Second violation at the same pc: escalated window (scale 2).
        ctrl.enter(ckpt(pc=5), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=20)
        assert ctrl._conservative_remaining == 8

    def test_commit_clears_violation_history(self):
        ctrl = make_controller(conservative_window=4)
        ctrl.enter(ckpt(pc=5), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=10)
        for _ in range(8):
            ctrl.note_instruction()
        ctrl.enter(ckpt(pc=5), SpecTrigger.FENCE)
        ctrl.commit(now=30, footprint_blocks=1)
        # History for pc=5 cleared: next violation gets the base window.
        ctrl.enter(ckpt(pc=5), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=40)
        assert ctrl._conservative_remaining == 4

    def test_enter_during_window_rejected(self):
        ctrl = make_controller(conservative_window=8)
        ctrl.enter(ckpt(), SpecTrigger.FENCE)
        ctrl.on_violation(ViolationReason.EXTERNAL_INVALIDATION, now=10)
        with pytest.raises(RuntimeError):
            ctrl.enter(ckpt(), SpecTrigger.FENCE)


class TestCommitPolicy:
    def test_on_demand_commits_at_drain_when_empty(self):
        ctrl = make_controller()
        ctrl.enter(ckpt(), SpecTrigger.FENCE)
        assert ctrl.should_commit(sb_empty=True, at_drain=True)
        assert not ctrl.should_commit(sb_empty=False, at_drain=True)

    def test_inactive_never_commits(self):
        ctrl = make_controller()
        assert not ctrl.should_commit(sb_empty=True, at_drain=True)

    def test_continuous_commit_interval(self):
        ctrl = make_controller(mode=SpeculationMode.CONTINUOUS,
                               continuous_commit_interval=4)
        ctrl.enter(ckpt(), SpecTrigger.CONTINUOUS)
        assert not ctrl.should_commit(sb_empty=True, at_drain=False)
        for _ in range(4):
            ctrl.note_instruction()
        assert ctrl.should_commit(sb_empty=True, at_drain=False)

    def test_continuous_wants_reentry(self):
        ctrl = make_controller(mode=SpeculationMode.CONTINUOUS)
        assert ctrl.wants_continuous_entry()
        ctrl.enter(ckpt(), SpecTrigger.CONTINUOUS)
        assert not ctrl.wants_continuous_entry()

    def test_on_demand_does_not_want_reentry(self):
        assert not make_controller().wants_continuous_entry()


class TestStorageModel:
    def test_headline_one_kilobyte(self):
        """The paper's claim: ~1 KB for a 64 KB L1."""
        model = StorageModel(CacheConfig(size_bytes=64 * 1024))
        assert 512 <= model.total_bytes <= 1536

    def test_independent_of_depth(self):
        bits = invisifence_storage_bits(CacheConfig())
        # No depth parameter exists; re-evaluate and compare per-store.
        assert bits == invisifence_storage_bits(CacheConfig())

    def test_per_store_scales_linearly(self):
        b8 = per_store_storage_bits(8)
        b16 = per_store_storage_bits(16)
        b32 = per_store_storage_bits(32)
        assert (b16 - b8) == (b32 - b16) / 2
        assert b8 > CHECKPOINT_BITS

    def test_per_store_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            per_store_storage_bits(-1)

    def test_breakdown_sums_to_total(self):
        model = StorageModel(CacheConfig())
        assert sum(model.breakdown_bits().values()) == model.total_bits

    def test_report_renders(self):
        text = StorageModel(CacheConfig()).report()
        assert "total" in text

    def test_sr_sw_scale_with_l1_blocks(self):
        small = invisifence_storage_bits(CacheConfig(size_bytes=16 * 1024))
        large = invisifence_storage_bits(CacheConfig(size_bytes=64 * 1024))
        assert large - small == 2 * (1024 - 256)
