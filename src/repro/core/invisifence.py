"""The InvisiFence speculation controller.

One controller per core.  It owns the *policy* of post-retirement
speculation -- when to enter (mode-dependent), when to commit, how to
guarantee forward progress after violations -- while the mechanics are
split between the core (checkpoint/restore, store-buffer squash) and
the L1 (SR/SW tracking, clean-before-write, violation detection).

Forward progress: after a violation the core re-executes from the
checkpoint *conservatively* (speculation disabled) for a window of
instructions, so the ordering stall that triggered speculation is taken
for real and the conflicting access completes.  Repeated violations at
the same checkpoint PC grow the window exponentially (capped), which
bounds livelock even under adversarial conflict patterns.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.coherence.l1 import ViolationReason
from repro.core.checkpoint import Checkpoint
from repro.sim.config import SpeculationConfig, SpeculationMode
from repro.sim.stats import StatsRegistry

#: Cap on the conservative-window growth factor after repeated violations.
MAX_WINDOW_SCALE = 64

_REASONS = tuple(ViolationReason)


@lru_cache(maxsize=None)
def _stat_names(core_id: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """A controller's counter names (in ``__init__``'s unpacking order)
    and histogram names, built once per process per core id."""
    prefix = f"spec.{core_id}"
    counters = (f"{prefix}.episodes", f"{prefix}.commits",
                f"{prefix}.violations", f"{prefix}.wasted_instructions",
                f"{prefix}.conservative_entries",
                *(f"{prefix}.violations.{reason.value}" for reason in _REASONS))
    histograms = (f"{prefix}.episode_cycles", f"{prefix}.footprint_blocks",
                  f"{prefix}.episode_stores")
    return counters, histograms


class SpecState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"


class SpecTrigger(enum.Enum):
    """What ordering constraint the speculation absorbed."""

    FENCE = "fence"
    ATOMIC = "atomic"
    SC_ORDER = "sc-order"
    CONTINUOUS = "continuous"


class InvisiFenceController:
    """Per-core speculation policy and bookkeeping."""

    def __init__(self, config: SpeculationConfig, stats: StatsRegistry, core_id: int):
        self.config = config
        #: Plain attribute, not a property: the core reads it on every
        #: instruction (see Core._step), so the lookup must stay cheap.
        self.active = False
        self.checkpoint: Optional[Checkpoint] = None
        self.trigger: Optional[SpecTrigger] = None
        self.instructions_since_checkpoint = 0
        self._conservative_remaining = 0
        self._violations_at_pc: Dict[int, int] = {}

        counter_names, (cycles, footprint, stores) = _stat_names(core_id)
        (self.stat_episodes, self.stat_commits, self.stat_violations,
         self.stat_wasted_instructions, self.stat_conservative_entries,
         *by_reason) = stats.counters(counter_names)
        self.stat_violations_by_reason = dict(zip(_REASONS, by_reason))
        self.stat_episode_cycles = stats.histogram(cycles, log2=True)
        self.stat_footprint_blocks = stats.histogram(footprint, log2=True)
        # Speculative stores per episode: feeds the per-store prior-design
        # coverage analysis (E6) -- their storage must scale with this.
        self.stat_episode_stores = stats.histogram(stores)
        self._episode_stores = 0

    # -------------------------------------------------------------- policy

    @property
    def state(self) -> SpecState:
        return SpecState.ACTIVE if self.active else SpecState.IDLE

    @property
    def conservative(self) -> bool:
        """True while the forward-progress window forbids speculation."""
        return self._conservative_remaining > 0

    def can_speculate(self) -> bool:
        """May a new speculation episode start right now?"""
        return self.config.enabled and not self.active and not self.conservative

    def wants_continuous_entry(self) -> bool:
        """Continuous mode re-enters speculation at every opportunity."""
        return (self.config.mode is SpeculationMode.CONTINUOUS
                and self.can_speculate())

    # ----------------------------------------------------------- lifecycle

    def enter(self, checkpoint: Checkpoint, trigger: SpecTrigger) -> None:
        if self.active:
            raise RuntimeError("speculation already active")
        if self.conservative:
            raise RuntimeError("cannot speculate inside the conservative window")
        self.active = True
        self.checkpoint = checkpoint
        self.trigger = trigger
        self.instructions_since_checkpoint = 0
        self._episode_stores = 0
        self.stat_episodes.increment()

    def note_instruction(self) -> None:
        """Called by the core once per executed instruction."""
        if self.active:
            self.instructions_since_checkpoint += 1
        if self._conservative_remaining > 0:
            self._conservative_remaining -= 1

    def note_speculative_store(self) -> None:
        """Called by the core when a speculative store enters the buffer."""
        if self.active:
            self._episode_stores += 1

    def should_commit(self, sb_empty: bool, at_drain: bool) -> bool:
        """Commit condition: every buffered store is globally performed.

        On-demand mode commits as soon as the buffer drains; continuous
        mode additionally commits at instruction boundaries once the
        checkpoint interval has elapsed (bounding the violation-exposure
        window while the store buffer happens to be empty).
        """
        if not self.active or not sb_empty:
            return False
        if at_drain:
            return True
        if self.config.mode is SpeculationMode.CONTINUOUS:
            return (self.instructions_since_checkpoint
                    >= self.config.continuous_commit_interval)
        return True

    def commit(self, now: int, footprint_blocks: int) -> None:
        """Speculation succeeded: all of it becomes architectural."""
        if not self.active:
            raise RuntimeError("no active speculation to commit")
        assert self.checkpoint is not None
        self.stat_commits.increment()
        self.stat_episode_cycles.add(now - self.checkpoint.taken_at_cycle)
        self.stat_footprint_blocks.add(footprint_blocks)
        self.stat_episode_stores.add(self._episode_stores)
        self._violations_at_pc.pop(self.checkpoint.pc, None)
        self.active = False
        self.checkpoint = None
        self.trigger = None
        self.instructions_since_checkpoint = 0

    def on_violation(self, reason: ViolationReason, now: int) -> Checkpoint:
        """Speculation aborted: record it and return the restore point.

        Activates the conservative window (growing exponentially with
        repeated violations at the same checkpoint) so the re-execution
        makes forward progress non-speculatively.
        """
        if not self.active:
            raise RuntimeError("violation with no active speculation")
        assert self.checkpoint is not None
        checkpoint = self.checkpoint
        self.stat_violations.increment()
        self.stat_violations_by_reason[reason].increment()
        self.stat_wasted_instructions.increment(self.instructions_since_checkpoint)
        self.stat_episode_cycles.add(now - checkpoint.taken_at_cycle)
        self.stat_episode_stores.add(self._episode_stores)

        count = self._violations_at_pc.get(checkpoint.pc, 0) + 1
        self._violations_at_pc[checkpoint.pc] = count
        scale = min(2 ** (count - 1), MAX_WINDOW_SCALE)
        if count >= self.config.max_rollbacks_before_stall:
            self._conservative_remaining = self.config.conservative_window * scale
        else:
            self._conservative_remaining = self.config.conservative_window
        if self._conservative_remaining > 0:
            self.stat_conservative_entries.increment()

        self.active = False
        self.checkpoint = None
        self.trigger = None
        self.instructions_since_checkpoint = 0
        return checkpoint
