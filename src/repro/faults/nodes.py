"""Node-fault execution: drives a :class:`NodeFaultPlan` against live cores.

The controller is the chaos layer's runtime half: at ``System.run`` it
schedules one simulator event per planned fault (plus one per resume),
so a plan replays bit-for-bit -- fault delivery rides the same
deterministic calendar queue as everything else, and scheduling happens
*before* the cores start, so a cycle's fault events always precede that
cycle's instruction dispatches (FIFO within a bucket).

The mechanism half lives in :meth:`repro.cpu.core.Core.enable_node_faults`:
targeted cores get every decoded dispatch slot wrapped with a crash/pause
guard, in place, so all dispatch paths (trampoline, direct appends, load
retirement, superblock relays) gate at instruction boundaries.  Cores a
plan targets are built *without* superblock fusion (see ``System``): a
fused block executes atomically at its head dispatch, so a fault landing
mid-block would settle at different instruction boundaries fused vs.
unfused, breaking the fusion-on/off determinism proof.  Untargeted
cores keep fusion and the original closures.

Stats counters (created lazily, only when a plan is active, so the
fault-free stats namespace -- and therefore result fingerprints -- stay
untouched):

* ``nodefaults.crashes``  -- crash faults that actually landed
* ``nodefaults.pauses``   -- pause faults that actually landed
* ``nodefaults.resumes``  -- pauses that ended with the core still live
* ``nodefaults.deferred`` -- dispatches stashed at a pause boundary

A fault scheduled after its core halted is a no-op (the plan outlived
the workload); it lands in no counter.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.faults.nodeplan import CRASH, NodeFaultPlan
from repro.sim.stats import StatsRegistry


class NodeFaultController:
    """Schedules the planned crash/pause/resume events for one run."""

    def __init__(self, sim, cores: List, plan: NodeFaultPlan,
                 stats: StatsRegistry,
                 on_crash: Optional[Callable] = None):
        self.sim = sim
        self.cores = cores
        self.plan = plan
        self.on_crash = on_crash
        self.stat_crashes = stats.counter("nodefaults.crashes")
        self.stat_pauses = stats.counter("nodefaults.pauses")
        self.stat_resumes = stats.counter("nodefaults.resumes")

    def disconnect(self) -> None:
        """Drop the crash callback into the system (see ``System.run``)."""
        self.on_crash = None

    def start(self) -> None:
        """Schedule every planned fault.  Call before the cores start."""
        for fault in self.plan.faults:
            core = self.cores[fault.core]
            if fault.kind == CRASH:
                self.sim.schedule_fast(fault.at_cycle, self._crash, core)
            else:
                self.sim.schedule_fast(fault.at_cycle, self._pause, core,
                                       fault.at_cycle + fault.duration)

    def _crash(self, core) -> None:
        if core.nf_crash():
            self.stat_crashes.increment()
            if self.on_crash is not None:
                self.on_crash(core)

    def _pause(self, core, resume_at: int) -> None:
        if core.nf_pause(resume_at):
            self.stat_pauses.increment()
            # The resume is scheduled only when the pause engages, so a
            # pause that missed (core already halted) leaves no event.
            self.sim.schedule_fast(resume_at - self.sim.now,
                                   self._resume, core)

    def _resume(self, core) -> None:
        if core.nf_resume():
            self.stat_resumes.increment()
