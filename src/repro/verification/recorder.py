"""Execution recording at the point of global visibility (L1 apply).

The recorder hooks every L1's ``access_listener`` and buffers accesses
made *speculatively*: they enter the committed log only when the episode
commits, and are discarded on rollback -- so the final log contains
exactly the architectural execution, in per-location coherence order
(apply order under a single-writer protocol).

Besides the globally visible accesses, the recorder captures the
**per-core program-order stream** needed by the per-model ordering
checker (:mod:`repro.verification.ordering`):

* every memory access carries ``po``, the issuing core's program-order
  index, assigned by the core at issue time (L1 apply may reorder
  records in time; ``po`` recovers program order);
* store-buffer-forwarded loads -- which never reach the L1 -- are
  recorded too, tagged ``forwarded=True``, via the L1's
  ``forward_listener`` hook;
* fences are recorded as :class:`FenceRecord` entries in a parallel
  stream (they are not memory accesses, but the RMO/TSO axioms need
  their program-order positions).

Speculative records (accesses and fences alike) are buffered per core
and committed or discarded with the episode.  Records still pending
when a run ends are reported through :attr:`pending_count` -- a nonzero
value means the simulation stopped mid-episode and the log is not a
complete architectural execution.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, NamedTuple, Optional

from repro.isa.instructions import FenceKind


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    RMW = "rmw"


class AccessRecord(NamedTuple):
    seq: int            #: global apply order tiebreaker
    cycle: int
    core: int
    kind: AccessKind
    addr: int
    value: int          #: value read (READ/RMW) or written (WRITE)
    written: Optional[int]  #: value written by an RMW (None if CAS failed)
    speculative: bool   #: applied inside a (later committed) episode
    po: int = -1        #: issuing core's program-order index (-1: unknown)
    forwarded: bool = False  #: load served by store-buffer forwarding

    @property
    def is_write(self) -> bool:
        return (self.kind is AccessKind.WRITE
                or (self.kind is AccessKind.RMW and self.written is not None))

    @property
    def is_read(self) -> bool:
        return self.kind is not AccessKind.WRITE

    @property
    def written_value(self) -> Optional[int]:
        if self.kind is AccessKind.WRITE:
            return self.value
        return self.written


class FenceRecord(NamedTuple):
    """One retired fence in a core's program-order stream."""

    core: int
    po: int
    kind: FenceKind
    speculative: bool


class ExecutionRecorder:
    """Collects the committed architectural access log of a run."""

    def __init__(self) -> None:
        self._seq = itertools.count()
        self.committed: List[AccessRecord] = []
        self.fences: List[FenceRecord] = []
        self._pending: Dict[int, List[AccessRecord]] = {}
        self._pending_fences: Dict[int, List[FenceRecord]] = {}
        self.discarded = 0
        self._sorted_cache: Optional[List[AccessRecord]] = None
        #: Number of full log sorts performed (the cache makes this 1 for
        #: an entire check_execution pass; tests assert it).
        self.sorts_performed = 0

    # -------------------------------------------------------------- hooks

    def on_access(self, cycle: int, core: int, kind: AccessKind, addr: int,
                  value: int, written: Optional[int], speculative: bool,
                  po: int = -1, forwarded: bool = False) -> None:
        record = AccessRecord(next(self._seq), cycle, core, kind, addr,
                              value, written, speculative, po, forwarded)
        if speculative:
            self._pending.setdefault(core, []).append(record)
        else:
            self.committed.append(record)
            self._sorted_cache = None

    def on_fence(self, core: int, po: int, kind: FenceKind,
                 speculative: bool) -> None:
        record = FenceRecord(core, po, kind, speculative)
        if speculative:
            self._pending_fences.setdefault(core, []).append(record)
        else:
            self.fences.append(record)

    def on_commit(self, core: int) -> None:
        """The episode committed: its accesses become architectural."""
        pending = self._pending.pop(core, None)
        if pending:
            self.committed.extend(pending)
            self._sorted_cache = None
        self.fences.extend(self._pending_fences.pop(core, []))

    def on_rollback(self, core: int) -> None:
        """The episode aborted: its accesses never happened."""
        self.discarded += len(self._pending.pop(core, []))
        self._pending_fences.pop(core, None)

    # ------------------------------------------------------------- attach

    @classmethod
    def attach(cls, system) -> "ExecutionRecorder":
        """Instrument every L1 of a System (before ``run``)."""
        recorder = cls()
        for l1 in system.l1s:
            recorder._instrument(l1, system.sim)
        return recorder

    def _instrument(self, l1, sim) -> None:
        core_id = l1.node_id

        def listener(kind, addr, value, written, speculative, po=-1):
            self.on_access(sim.now, core_id, kind, addr, value, written,
                           speculative, po)

        def forward_listener(addr, value, speculative, po):
            self.on_access(sim.now, core_id, AccessKind.READ, addr, value,
                           None, speculative, po, forwarded=True)

        def fence_listener(kind, po, speculative):
            self.on_fence(core_id, po, kind, speculative)

        l1.access_listener = listener
        l1.forward_listener = forward_listener
        l1.fence_listener = fence_listener

        original_commit = l1.commit_speculation
        original_rollback = l1.rollback_speculation

        def commit_hook():
            self.on_commit(core_id)
            original_commit()

        def rollback_hook(exclude=None):
            self.on_rollback(core_id)
            original_rollback(exclude=exclude)

        l1.commit_speculation = commit_hook
        l1.rollback_speculation = rollback_hook

    # ------------------------------------------------------------- views

    def sorted_log(self) -> List[AccessRecord]:
        """Committed accesses in global apply order (cached; the cache is
        invalidated whenever the committed log grows)."""
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self.committed,
                                        key=lambda r: (r.cycle, r.seq))
            self.sorts_performed += 1
        return self._sorted_cache

    @property
    def pending_count(self) -> int:
        """Speculative records neither committed nor discarded.

        Nonzero after a run means the simulation ended mid-episode (the
        recorded log is not a complete architectural execution);
        :func:`repro.verification.checker.check_execution` raises on it.
        """
        return (sum(len(v) for v in self._pending.values())
                + sum(len(v) for v in self._pending_fences.values()))

    def __len__(self) -> int:
        return len(self.committed)
