"""Fault-injecting interconnect wrapper.

:class:`FaultInjector` wraps a real interconnect (crossbar or mesh) and
perturbs its delivery layer according to a :class:`~repro.faults.plan.
FaultPlan`: bounded extra delay jitter, message duplication, transient
per-(src, dst) stalls, and drop-with-NACK.  The wrapper sits *between*
the endpoints and the inner network, so the inner network's own timing
model (port serialisation, link contention) still applies to whatever
the injector lets through.

Two invariants are load-bearing:

* **FIFO per (src, dst) is preserved.**  The MESI protocol assumes
  messages between a fixed pair never reorder.  Every perturbed send is
  therefore *scheduled* into the inner network (never called
  synchronously) at a release time clamped to a monotone per-pair
  floor; the engine's same-cycle FIFO bucket order then keeps equal
  release times in send order, and the inner network serialises from
  there.  Duplicates advance the floor too, so a dup cannot be
  overtaken by a later message.

* **Determinism.**  One ``random.Random(plan.seed)`` is consumed in
  send order.  The simulation itself is deterministic, so the sequence
  of sends -- and hence of fault decisions -- is identical across runs
  with the same seed and plan.

Drops apply only to re-sendable requests/probes (``DROPPABLE``); data
responses and acks are reliable, mirroring protected reply networks.
A drop synthesises a NACK carrying the original message and delivers it
straight to the *sender's* endpoint after ``nack_latency`` cycles (the
fault layer owns the NACK channel; it does not transit the inner
network, so NACKs themselves are never dropped).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Tuple

from repro.coherence.messages import Message, MessageType
from repro.faults.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Message types the injector may drop: requests and probes, all of
#: which the sender can safely re-issue.  DATA_*, acks, and writeback
#: notifications ride the reliable channel (dropping a data response
#: would require a directory-side timeout protocol the paper's machine
#: does not have).
DROPPABLE = frozenset({
    MessageType.GET_S,
    MessageType.GET_M,
    MessageType.PUT_S,
    MessageType.PUT_E,
    MessageType.PUT_M,
    MessageType.INV,
    MessageType.FWD_GET_S,
})


class FaultInjector:
    """Wraps an interconnect; perturbs delivery per a :class:`FaultPlan`."""

    def __init__(self, sim: Simulator, inner: Any, plan: FaultPlan,
                 stats: StatsRegistry):
        self.sim = sim
        self.inner = inner
        self.plan = plan
        # One stream, consumed in simulation send order.
        self._rng = random.Random(plan.seed)
        self._endpoints: Dict[int, Any] = {}
        #: per-(src, dst) monotone release floor (FIFO preservation)
        self._pair_floor: Dict[Tuple[int, int], int] = {}
        self._forced_drops = plan.drop_first_n
        self.stat_dropped = stats.counter("faults.dropped")
        self.stat_nacks_sent = stats.counter("faults.nacks_sent")
        self.stat_duplicated = stats.counter("faults.duplicated")
        self.stat_stalled = stats.counter("faults.stalls")
        self.stat_delayed = stats.counter("faults.delayed")
        self.stat_extra_delay = stats.accumulator("faults.extra_delay_cycles")

    @property
    def name(self) -> str:
        return getattr(self.inner, "name", "net")

    def attach(self, node_id: int, endpoint: Any) -> None:
        """Register with both layers: the injector needs the endpoint map
        to deliver NACKs directly to senders."""
        self._endpoints[node_id] = endpoint
        self.inner.attach(node_id, endpoint)

    def disconnect(self) -> None:
        """Drop both layers' endpoint maps (see ``System.run``)."""
        self._endpoints.clear()
        self.inner.disconnect()

    def send(self, src: int, dst: int, msg: Any) -> None:
        plan = self.plan
        rng = self._rng

        if msg.mtype in DROPPABLE:
            forced = self._forced_drops > 0
            if forced or (plan.drop_prob and rng.random() < plan.drop_prob):
                if forced:
                    self._forced_drops -= 1
                self._drop(src, dst, msg)
                return

        now = self.sim._now
        pair = (src, dst)
        floor = self._pair_floor.get(pair, 0)
        release = now if now > floor else floor
        if plan.stall_prob and rng.random() < plan.stall_prob:
            self.stat_stalled.value += 1
            release += plan.stall_cycles
        if plan.jitter_prob and rng.random() < plan.jitter_prob:
            release += rng.randrange(1, plan.max_jitter + 1)
        if release > now:
            self.stat_delayed.value += 1
            self.stat_extra_delay.add(release - now)
        self._pair_floor[pair] = release
        # Always *schedule* entry into the inner network: an earlier
        # message of this pair may still be waiting in the calendar, and
        # a synchronous inner.send here would overtake it.
        self.sim.schedule_fast_at(release, self.inner.send, src, dst, msg)

        if plan.dup_prob and rng.random() < plan.dup_prob:
            # The duplicate shares the original's uid, so endpoint
            # duplicate-suppression drops exactly the injected copies.
            self.stat_duplicated.value += 1
            dup_at = release + plan.dup_lag
            self._pair_floor[pair] = dup_at
            self.sim.schedule_fast_at(dup_at, self.inner.send, src, dst, msg)

    def _drop(self, src: int, dst: int, msg: Any) -> None:
        """Drop ``msg`` and NACK its sender.

        The NACK's ``src`` field is the node the message never reached,
        so the sender knows where a retry must go; ``orig`` carries the
        dropped message itself for re-issue.
        """
        self.stat_dropped.value += 1
        self.stat_nacks_sent.value += 1
        nack = Message(MessageType.NACK, msg.addr, src=dst,
                       word_addr=msg.word_addr, orig=msg)
        self.sim.schedule_fast(self.plan.nack_latency,
                               self._endpoints[src].receive, nack)
