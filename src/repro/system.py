"""System builder: wires cores, L1s, directory, and interconnect.

This is the main entry point for running a workload::

    from repro import System, SystemConfig
    system = System(config, programs, initial_memory={LOCK: 0})
    result = system.run()
    print(result.cycles, result.read_word(COUNTER))
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.chunk import CommitArbiter
from repro.coherence.cache import CacheState
from repro.coherence.directory import Directory
from repro.coherence.homemap import build_home_map
from repro.coherence.l1 import L1Cache
from repro.cpu.core import Core, StallCause
from repro.faults.injector import FaultInjector
from repro.faults.nodeplan import NodeFaultPlan
from repro.faults.nodes import NodeFaultController
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import DeadlockError, Watchdog, diagnostic_dump
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.mesh import Mesh
from repro.isa.program import Program
from repro.sim.config import SystemConfig, Topology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import StatsRegistry

#: Watchdog: a healthy workload in this suite never needs this many events.
DEFAULT_MAX_EVENTS = 50_000_000


class CoherenceInvariantError(AssertionError):
    """Raised when the single-writer/multiple-reader invariant is broken."""


@dataclass
class CoreSummary:
    """Per-core outcome snapshot (picklable, no simulator references)."""

    core_id: int
    instructions: int
    finish_cycle: Optional[int]
    busy_cycles: int
    stall_cycles: Dict[StallCause, int]
    registers: List[int]
    # Trace-compilation coverage (superblock fusion).  Deliberately NOT
    # part of the stats registry: result fingerprints hash the full
    # stats snapshot, and fusion must be invisible there.
    fused_instructions: int
    fused_blocks: int
    # Node-fault outcome (chaos layer).  Property checkers read these to
    # decide which cores count as "live" for convergence/agreement claims.
    crashed: bool
    crashed_at: Optional[int]

    def ordering_stall_cycles(self) -> int:
        return sum(cycles for cause, cycles in self.stall_cycles.items()
                   if cause.is_ordering)

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index]


class SystemResult:
    """Picklable outcome of one simulation run.

    Everything the harness, validators and benchmarks read -- cycle
    count, per-core summaries and an architectural memory snapshot -- is
    captured by value at construction time.  The one exception is
    ``stats``: it is the run's live :class:`StatsRegistry`, not a copy,
    so every result taken from one machine (a fuzz case and its twin,
    see :func:`repro.verification.fuzz.execute_case`) shares one
    registry.  That is safe only because a :class:`System` runs once.
    Nothing else refers back to the live :class:`System`, so results
    survive ``pickle``, which lets the parallel sweep runner ship them
    back from worker processes.

    :meth:`System.run` builds its result before it disconnects the
    machine; a result built later from the same disconnected
    :class:`System` reads the same values, since everything captured
    here stays readable after the run.
    """

    def __init__(self, system: "System"):
        self.cycles = max((c.finish_cycle or 0) for c in system.cores)
        self.events = system.sim.events_dispatched
        self.stats = system.stats
        self.config = system.config
        self.cores: List[CoreSummary] = [
            CoreSummary(
                core_id=c.core_id,
                instructions=c.instructions,
                finish_cycle=c.finish_cycle,
                busy_cycles=c.stat_busy.value,
                stall_cycles={cause: c.stat_stall[cause].value
                              for cause in StallCause},
                registers=c.regs.snapshot(),
                fused_instructions=c.fused_instructions,
                fused_blocks=c.fused_blocks,
                crashed=(c.nf_state == 2),
                crashed_at=c.nf_crashed_at,
            )
            for c in system.cores
        ]
        self._memory = system.memory_snapshot()

    def crashed_core_ids(self) -> List[int]:
        """Cores the node-fault plan crash-stopped (empty when clean)."""
        return [c.core_id for c in self.cores if c.crashed]

    def live_core_ids(self) -> List[int]:
        """Cores that ran to HALT (survivors, including resumed ones)."""
        return [c.core_id for c in self.cores if not c.crashed]

    def read_word(self, addr: int) -> int:
        """Architectural memory value after the run (L1-dirty-aware)."""
        return self._memory.get(addr, 0)

    def core_reg(self, core_id: int, reg: int) -> int:
        return self.cores[core_id].read_reg(reg)

    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    def fused_instructions(self) -> int:
        """Dynamic instructions retired inside fused superblocks."""
        return sum(c.fused_instructions for c in self.cores)

    def fused_blocks(self) -> int:
        """Fused superblock dispatches across all cores."""
        return sum(c.fused_blocks for c in self.cores)

    def fusion_coverage(self) -> float:
        """Fraction of dynamic instructions retired inside superblocks."""
        total = self.total_instructions()
        return self.fused_instructions() / total if total else 0.0

    def mean_superblock_length(self) -> float:
        """Mean dynamic length of dispatched superblocks (0 if none)."""
        blocks = self.fused_blocks()
        return self.fused_instructions() / blocks if blocks else 0.0

    def ordering_stall_cycles(self) -> int:
        return sum(c.ordering_stall_cycles() for c in self.cores)

    def stall_cycles(self, cause: StallCause) -> int:
        return sum(c.stall_cycles[cause] for c in self.cores)

    def busy_cycles(self) -> int:
        return sum(c.busy_cycles for c in self.cores)

    def violations(self) -> int:
        return int(self.stats.sum(
            f"spec.{i}.violations" for i in range(self.config.n_cores)
        ))

    def commits(self) -> int:
        return int(self.stats.sum(
            f"spec.{i}.commits" for i in range(self.config.n_cores)
        ))


class System:
    """A complete simulated machine bound to one set of thread programs."""

    def __init__(
        self,
        config: SystemConfig,
        programs: Sequence[Program],
        initial_memory: Optional[Dict[int, int]] = None,
        fault_plan: Optional[FaultPlan] = None,
        node_plan: Optional[NodeFaultPlan] = None,
    ):
        if len(programs) != config.n_cores:
            raise ValueError(
                f"need exactly {config.n_cores} programs, got {len(programs)}"
            )
        self.config = config
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self._ran = False
        if config.interconnect.topology is Topology.MESH:
            self.net = Mesh(self.sim, config.n_cores + config.n_homes,
                            self.stats,
                            hop_latency=config.interconnect.mesh_hop_latency,
                            link_issue_interval=config.interconnect.port_issue_interval)
        else:
            self.net = Crossbar(self.sim, config.interconnect, self.stats)

        # An *active* fault plan wraps the interconnect before anything
        # attaches; every endpoint then registers with both layers.  A
        # clean plan (or None) leaves the machine byte-identical to a
        # build without the fault subsystem.
        self.fault_plan = fault_plan if fault_plan is not None and fault_plan.active \
            else None
        if self.fault_plan is not None:
            self.net = FaultInjector(self.sim, self.net, self.fault_plan, self.stats)

        # The node-fault axis follows the same rule: an inactive plan is
        # indistinguishable from none, and an active one touches only
        # the cores it names (see enable_node_faults / NodeFaultController).
        self.node_plan = node_plan if node_plan is not None and node_plan.active \
            else None
        self.crashed_cores: set = set()
        self.node_controller: Optional[NodeFaultController] = None
        if self.node_plan is not None:
            for fault in self.node_plan.faults:
                if fault.core >= config.n_cores:
                    raise ValueError(
                        f"node fault targets core {fault.core}, but the "
                        f"system has only {config.n_cores} cores")

        directory_id = config.n_cores
        # Directory homes: home h lives at node id n_cores + h.  With
        # one home (the default) this is the historical single directory
        # and the home map degenerates to a constant; the "dir.*" stats
        # are registry get-or-create, so multiple homes share them.
        self.home_map = build_home_map(config.n_homes, directory_id)
        self.directories: List[Directory] = []
        for home in range(config.n_homes):
            directory = Directory(self.sim, directory_id + home, config.l1,
                                  config.memory, self.net, self.stats)
            self.net.attach(directory_id + home, directory)
            self.directories.append(directory)
        self.directory = self.directories[0]

        if initial_memory:
            for addr, value in initial_memory.items():
                if addr % 8 != 0:
                    raise ValueError(f"initial memory address {addr:#x} not word-aligned")
                home = self.home_map.home_index(config.l1.block_of(addr))
                self.directories[home].preload(addr, value)

        self.commit_arbiter: Optional[CommitArbiter] = None
        if config.speculation.enabled and config.speculation.commit_arbitration:
            self.commit_arbiter = CommitArbiter(
                self.sim, config.speculation.arbitration_latency, self.stats)

        self.l1s: List[L1Cache] = []
        self.cores: List[Core] = []
        self._halted_count = 0
        targeted = (self.node_plan.affected_cores()
                    if self.node_plan is not None else frozenset())
        for core_id, program in enumerate(programs):
            l1 = L1Cache(self.sim, core_id, config.l1, config.speculation,
                         self.net, directory_id, self.stats,
                         home_map=self.home_map)
            self.net.attach(core_id, l1)
            # Targeted cores run per-instruction: a fused superblock
            # executes atomically at its head dispatch, so a fault
            # landing mid-block would settle at different instruction
            # boundaries fused vs. unfused, breaking the guarantee that
            # fusion is invisible.  Untargeted cores keep fusion (and
            # their original closures).
            core = Core(self.sim, core_id, config.core, config.speculation,
                        program, l1, self.stats, on_halt=self._on_core_halt,
                        commit_arbiter=self.commit_arbiter,
                        superblocks=core_id not in targeted)
            self.l1s.append(l1)
            self.cores.append(core)

        if self.node_plan is not None:
            deferred = self.stats.counter("nodefaults.deferred")
            for core_id in targeted:
                self.cores[core_id]._nf_stat_deferred = deferred
                self.cores[core_id].enable_node_faults()
            self.node_controller = NodeFaultController(
                self.sim, self.cores, self.node_plan, self.stats,
                on_crash=self._on_core_crash)

        if self.fault_plan is not None:
            # Endpoints must tolerate what the injector does: duplicates
            # (uid suppression) and drops (NACK-driven retries).
            for directory in self.directories:
                directory.enable_fault_hardening(self.fault_plan, self.stats)
            for l1 in self.l1s:
                l1.enable_fault_hardening(self.fault_plan, self.stats)

    def _on_core_halt(self, core: Core) -> None:
        self._halted_count += 1

    def _on_core_crash(self, core: Core) -> None:
        self.crashed_cores.add(core.core_id)

    @property
    def all_halted(self) -> bool:
        return self._halted_count == len(self.cores)

    @property
    def all_settled(self) -> bool:
        """Every core either halted or was crash-stopped by the plan.

        This is the chaos-aware liveness criterion: a crashed core never
        halts, so a run that loses nodes is *supposed* to end with the
        survivors halted and the victims crashed.  (A core cannot be
        both: a crash on a halted core is a no-op, and a crashed core
        can never reach HALT.)
        """
        return self._halted_count + len(self.crashed_cores) == len(self.cores)

    def run(self, max_events: int = DEFAULT_MAX_EVENTS,
            check_invariants: bool = False,
            max_cycles: Optional[int] = None,
            watchdog: Optional[Watchdog] = None) -> SystemResult:
        """Run every core to completion and return the result.

        ``check_invariants=True`` validates the coherence SWMR invariant
        after the run (tests use it; benchmarks skip the cost).
        ``max_cycles`` caps simulated time (off by default; harness and
        fuzz entry points set it) and ``watchdog`` arms a
        :class:`repro.faults.Watchdog` liveness monitor.  Raises
        :class:`~repro.faults.DeadlockError` on deadlock (event queue
        drained -- or quiescent, with a watchdog -- while cores are
        blocked), :class:`~repro.faults.LivelockError` on a watchdog
        no-commit window expiry, or :class:`SimulationError` on the
        event/cycle caps; all carry a diagnostic dump.

        A :class:`System` runs once: a second call raises
        :class:`SimulationError` instead of dispatching more events on a
        finished machine, whose results and registry callers may share.

        A successful run ends disconnected: once the result is built,
        every component drops the callbacks that wire it to itself and
        its peers, so the finished machine is freed by reference
        counting as soon as its last reference goes, not by the cyclic
        collector.  What the run left stays readable: registers and
        counters, cache arrays and the directories' backing store,
        recorder logs, ``sim.now`` and ``events_dispatched`` -- so
        :class:`SystemResult`, :meth:`read_word`, :meth:`memory_snapshot`
        and :meth:`check_swmr` read exactly as before.  A run that raises
        keeps its wiring for diagnosis.
        """
        if self._ran:
            raise SimulationError(
                "System.run() called twice: a System runs once; build a "
                "new System to run the programs again")
        self._ran = True
        if self.node_controller is not None:
            # Before the cores: a cycle's fault events must precede that
            # cycle's instruction dispatches (FIFO within a bucket), so
            # even a cycle-0 crash lands before the first fetch.
            self.node_controller.start()
        for core in self.cores:
            core.start()
        if watchdog is not None:
            watchdog.start()
        # Suspend the cyclic GC for the event loop: the simulation
        # allocates heavily (messages, schedule tuples, requests) but
        # creates no cycles it needs collected mid-run, and gen-0 scans
        # cost several percent of wall time.  Restored in ``finally`` so
        # exceptions (and callers who already disabled GC) are safe.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run(max_events=max_events, max_cycles=max_cycles)
        except SimulationError as exc:
            if type(exc) is not SimulationError:
                raise  # watchdog Deadlock/LivelockError: dump already attached
            raise SimulationError(f"{exc}\n{diagnostic_dump(self)}") from exc
        finally:
            if gc_was_enabled:
                gc.enable()
        if not self.all_settled:
            stuck = [c.core_id for c in self.cores
                     if not c.halted and c.core_id not in self.crashed_cores]
            crashed = ""
            if self.crashed_cores:
                crashed = (f" (cores {sorted(self.crashed_cores)} "
                           "crash-stopped by the node-fault plan)")
            raise DeadlockError(
                f"deadlock: event queue drained with cores {stuck} not halted "
                f"at cycle {self.sim.now}{crashed}\n{diagnostic_dump(self)}"
            )
        if check_invariants:
            self.check_swmr()
        result = SystemResult(self)
        self._disconnect()
        return result

    def _disconnect(self) -> None:
        """Unwire a finished machine (see :meth:`run`).

        Each component drops what it holds; the system drops the
        interconnect ``send`` that :meth:`enable_tracing` installed,
        whose closure captures the system.
        """
        self.net.__dict__.pop("send", None)
        self.net.disconnect()
        for component in (*self.cores, *self.l1s, *self.directories):
            component.disconnect()
        if self.node_controller is not None:
            self.node_controller.disconnect()

    def enable_tracing(self, limit: int = 10_000):
        """Record every coherence message into a bounded ring buffer.

        Returns the :class:`repro.sim.trace.MessageTrace`; call its
        ``render()`` / ``filter()`` to inspect protocol activity.  Must
        be called before :meth:`run`.
        """
        from repro.sim.trace import attach_trace
        return attach_trace(self, limit)

    # ----------------------------------------------------------- inspection

    def read_word(self, addr: int) -> int:
        """The architecturally current value of one memory word.

        A dirty M copy in some L1 wins; otherwise the directory/L2
        backing copy is current.
        """
        block_addr = self.config.l1.block_of(addr)
        for l1 in self.l1s:
            block = l1.array.lookup(block_addr, touch=False)
            if block is not None and block.state is CacheState.MODIFIED:
                return block.data[l1.array.word_index(addr)]
        home = self.home_map.home_index(block_addr)
        return self.directories[home].peek_word(addr)

    def memory_snapshot(self) -> Dict[int, int]:
        """Every architecturally known memory word, dirty-L1-aware.

        The directory/L2 backing store is overlaid with any MODIFIED L1
        copies; words never touched by the run are absent (they read as
        zero, matching :meth:`read_word`).
        """
        snapshot: Dict[int, int] = {}
        for directory in self.directories:
            for block_addr, data in directory.backing_blocks():
                for i, value in enumerate(data):
                    snapshot[block_addr + 8 * i] = value
        for l1 in self.l1s:
            for block in l1.array:
                if block.state is CacheState.MODIFIED:
                    for i, value in enumerate(block.data):
                        snapshot[block.addr + 8 * i] = value
        return snapshot

    def check_swmr(self) -> None:
        """Single-writer/multiple-reader: for every block, at most one L1
        holds it writable, and never alongside readable copies elsewhere."""
        holders: Dict[int, List[CacheState]] = {}
        for l1 in self.l1s:
            for block in l1.array:
                holders.setdefault(block.addr, []).append(block.state)
        for addr, states in holders.items():
            writable = sum(1 for s in states if s.writable)
            readable = len(states)
            if writable > 1:
                raise CoherenceInvariantError(
                    f"block {addr:#x}: {writable} writable copies"
                )
            if writable == 1 and readable > 1:
                raise CoherenceInvariantError(
                    f"block {addr:#x}: writable copy coexists with "
                    f"{readable - 1} other copies"
                )


def run_system(config: SystemConfig, programs: Sequence[Program],
               initial_memory: Optional[Dict[int, int]] = None,
               check_invariants: bool = False) -> SystemResult:
    """One-shot convenience wrapper: build a :class:`System` and run it."""
    system = System(config, programs, initial_memory)
    return system.run(check_invariants=check_invariants)
