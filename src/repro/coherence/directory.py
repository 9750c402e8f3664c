"""Blocking coherence directory, co-located with the inclusive shared L2.

The directory is the per-block serialisation point: it processes one
transaction per block at a time and queues further requests for that
block.  All data moves through the directory (no cache-to-cache
forwarding), which together with the crossbar's per-(src,dst) FIFO
delivery eliminates the classic protocol races.

Backing storage models an inclusive L2 + DRAM: data is always
available; *timing* distinguishes a warm L2 hit from a cold first-touch
(DRAM latency).  Capacity effects are modelled in the L1s only -- the
shared L2 is treated as large enough to hold every workload's footprint
(documented substitution; the paper's phenomena live in the L1s).
"""

from __future__ import annotations

import enum
from collections import deque
from heapq import heappush as _heappush
from typing import Deque, Dict, List, Optional, Set

from repro.coherence.messages import DIRECTORY_REQUESTS, Message, MessageType
from repro.sim.config import CacheConfig, MemoryConfig
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import StatsRegistry

_GET_S = MessageType.GET_S
_GET_M = MessageType.GET_M
_PUT_S = MessageType.PUT_S
_PUT_E = MessageType.PUT_E
_PUT_M = MessageType.PUT_M
_DATA_S = MessageType.DATA_S
_DATA_E = MessageType.DATA_E
_DATA_M = MessageType.DATA_M
_INV = MessageType.INV
_FWD_GET_S = MessageType.FWD_GET_S
_PUT_ACK = MessageType.PUT_ACK
_DOWNGRADE_ACK = MessageType.DOWNGRADE_ACK
_NACK = MessageType.NACK


class DirState(enum.Enum):
    INVALID = "I"       #: no L1 holds the block
    SHARED = "S"        #: one or more read-only copies
    EXCLUSIVE = "E"     #: one L1 owns the block (E or M there)


class _Entry:
    """Directory state for one block."""

    __slots__ = ("state", "sharers", "owner")

    def __init__(self) -> None:
        self.state = DirState.INVALID
        self.sharers: Set[int] = set()
        self.owner: Optional[int] = None


class _Transaction:
    """An in-flight request the directory is serialising for one block."""

    __slots__ = ("msg", "acks_needed", "kind")

    def __init__(self, msg: Message, acks_needed: int, kind: str):
        self.msg = msg
        self.acks_needed = acks_needed
        self.kind = kind  # "gets_recall" | "getm_inval"


class Directory:
    """MESI directory + inclusive L2 backing store."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        cache_config: CacheConfig,
        memory_config: MemoryConfig,
        interconnect,
        stats: StatsRegistry,
    ):
        self.sim = sim
        self.node_id = node_id
        self.cache_config = cache_config
        self.memory_config = memory_config
        self.net = interconnect
        self._entries: Dict[int, _Entry] = {}
        self._backing: Dict[int, List[int]] = {}
        self._touched: Set[int] = set()
        self._active: Dict[int, _Transaction] = {}
        self._pending: Dict[int, Deque[Message]] = {}

        # Hot-path caches (PR 2 idiom: one attribute walk at init).
        self._schedule_fast = sim.schedule_fast
        self._directory_latency = memory_config.directory_latency

        # Table dispatch, keyed by integer mtype codes.
        self._receive_handlers = {
            _GET_S: self._on_request,
            _GET_M: self._on_request,
            _PUT_S: self._on_request,
            _PUT_E: self._on_request,
            _PUT_M: self._on_request,
            MessageType.WB_CLEAN: self._on_wb_clean,
            MessageType.WB_WORD: self._on_wb_word,
            MessageType.INV_ACK: self._on_ack,
            _DOWNGRADE_ACK: self._on_ack,
        }
        self._process_handlers = {
            _GET_S: self._process_get_s,
            _GET_M: self._process_get_m,
            _PUT_S: self._process_put_s,
            _PUT_E: self._process_put_e,
            _PUT_M: self._process_put_m,
        }

        self.stat_requests = stats.counter("dir.requests")
        self.stat_recalls = stats.counter("dir.recalls")
        self.stat_invalidations = stats.counter("dir.invalidations_sent")
        self.stat_dram_fetches = stats.counter("dir.dram_fetches")
        self.stat_l2_hits = stats.counter("dir.l2_hits")
        self.stat_stale_puts = stats.counter("dir.stale_puts")
        self.stat_queued = stats.counter("dir.requests_queued")

        # Fault hardening (armed by enable_fault_hardening; see repro.faults).
        self._retry_plan = None
        self._seen_uids: Optional[Set[int]] = None

    def disconnect(self) -> None:
        """Drop the handler tables and a hardened ``receive``, all bound
        to this directory (see ``System.run``).  The backing store and
        the block entries stay readable."""
        self._receive_handlers.clear()
        self._process_handlers.clear()
        self.__dict__.pop("receive", None)

    # ------------------------------------------------------------- storage

    @property
    def words_per_block(self) -> int:
        return self.cache_config.block_bytes // 8

    def _entry(self, addr: int) -> _Entry:
        entry = self._entries.get(addr)
        if entry is None:
            entry = _Entry()
            self._entries[addr] = entry
        return entry

    def backing_data(self, addr: int) -> List[int]:
        data = self._backing.get(addr)
        if data is None:
            data = [0] * self.words_per_block
            self._backing[addr] = data
        return data

    def preload(self, addr: int, value: int) -> None:
        """Initialise one word of memory (used to set up workload data).

        Marks the block warm so initialisation does not perturb the
        cold-miss timing of the measured region... it *does* mark it
        touched, which is the right model for data the workload set up.
        """
        block_addr = self.cache_config.block_of(addr)
        data = self.backing_data(block_addr)
        data[(addr - block_addr) // 8] = value

    def backing_blocks(self):
        """Iterate ``(block_addr, word_list)`` over the L2 backing store."""
        return self._backing.items()

    def peek_word(self, addr: int) -> int:
        """Directory/L2 copy of one word (tests and result extraction).

        Note: an L1 may hold a dirtier copy; use the system-level
        ``read_final_memory`` helpers after a run has drained.
        """
        block_addr = self.cache_config.block_of(addr)
        data = self._backing.get(block_addr)
        if data is None:
            return 0
        return data[(addr - block_addr) // 8]

    def _fetch_latency(self, addr: int) -> int:
        if addr in self._touched:
            self.stat_l2_hits.value += 1
            return self.memory_config.l2_hit_latency
        self._touched.add(addr)
        self.stat_dram_fetches.value += 1
        return self.memory_config.dram_latency

    # ------------------------------------------------------------ receive

    def receive(self, msg: Message) -> None:
        handler = self._receive_handlers.get(msg.mtype)
        if handler is None:
            raise SimulationError(f"directory: unexpected message {msg}")
        handler(msg)

    def _on_request(self, msg: Message) -> None:
        if msg.addr in self._active:
            self.stat_queued.value += 1
            self._pending.setdefault(msg.addr, deque()).append(msg)
            return
        # Schedule the type's process handler itself (skipping the
        # _process dispatch hop) and count the request here -- every
        # request passes through exactly one of the two schedule sites
        # (here or the _complete queue drain), so the total is the same.
        self.stat_requests.value += 1
        # Inlined schedule_fast body (a calendar-bucket append).
        sim = self.sim
        time = sim._now + self._directory_latency
        buckets = sim._buckets
        bucket = buckets.get(time)
        entry = (self._process_handlers[msg.mtype], (msg,))
        if bucket is None:
            buckets[time] = [entry]
            _heappush(sim._times, time)
        else:
            bucket.append(entry)
        sim._pending += 1
        # Mark busy immediately so same-cycle requests queue behind us.
        self._active[msg.addr] = _Transaction(msg, acks_needed=0, kind="pending")

    def _on_wb_clean(self, msg: Message) -> None:
        assert msg.data is not None
        self._backing[msg.addr] = msg.data
        self._touched.add(msg.addr)

    def _on_wb_word(self, msg: Message) -> None:
        # One committed word written through from an owner whose block
        # is speculatively modified: patch the rollback image.
        assert msg.data is not None and len(msg.data) == 1
        assert msg.word_addr is not None
        data = self.backing_data(msg.addr)
        data[(msg.word_addr - msg.addr) // 8] = msg.data[0]
        self._touched.add(msg.addr)

    # -------------------------------------------- fault hardening (opt-in)

    def enable_fault_hardening(self, plan, stats: StatsRegistry) -> None:
        """Arm duplicate suppression and NACK-driven probe retries.

        Counterpart of :meth:`repro.coherence.l1.L1Cache.
        enable_fault_hardening`: counters are created lazily so
        fault-free stats snapshots (and result fingerprints) are
        unchanged, and the hardened receive path shadows the plain one.
        Duplicate *requests* matter especially here -- an un-suppressed
        duplicate GET would enqueue a second transaction for a requester
        that expects one response.
        """
        self._retry_plan = plan
        self._seen_uids = set()
        self.stat_nacks = stats.counter("dir.nacks_received")
        self.stat_retries = stats.counter("dir.retries")
        self.stat_dups_suppressed = stats.counter("dir.dups_suppressed")
        self.receive = self._receive_hardened  # type: ignore[method-assign]

    def _receive_hardened(self, msg: Message) -> None:
        seen = self._seen_uids
        if msg.uid in seen:
            self.stat_dups_suppressed.increment()
            return
        seen.add(msg.uid)
        if msg.mtype is _NACK:
            self._on_nack(msg)
            return
        Directory.receive(self, msg)

    def _on_nack(self, msg: Message) -> None:
        """One of our probes (INV / FWD_GET_S) was dropped; re-issue it.

        The retry is guarded on the block's transaction still being open
        past the "pending" stage -- the stage whose probes are in
        flight.  ``msg.src`` is the node the probe never reached (set by
        the fault layer), which is where the retry must go.
        """
        self.stat_nacks.increment()
        plan = self._retry_plan
        orig = msg.orig
        if plan is None or not plan.retries_enabled or orig is None:
            return
        if not self._probe_wanted(orig):
            return
        backoff = plan.retry_backoff_base << min(orig.attempt, plan.retry_backoff_cap)
        self.sim.schedule_fast(backoff, self._retry_probe, orig, msg.src)

    def _probe_wanted(self, orig: Message) -> bool:
        txn = self._active.get(orig.addr)
        return txn is not None and txn.kind != "pending"

    def _retry_probe(self, orig: Message, target: int) -> None:
        if not self._probe_wanted(orig):
            return
        self.stat_retries.increment()
        self.net.send(self.node_id, target,
                      Message(orig.mtype, orig.addr, self.node_id,
                              word_addr=orig.word_addr,
                              attempt=orig.attempt + 1))

    # ------------------------------------------------------- transactions

    def _process(self, msg: Message) -> None:
        self.stat_requests.value += 1
        self._process_handlers[msg.mtype](msg)

    def _process_get_s(self, msg: Message) -> None:
        entry = self._entry(msg.addr)
        if entry.state is DirState.INVALID:
            entry.state = DirState.EXCLUSIVE
            entry.owner = msg.src
            self._send_data(msg.src, _DATA_E, msg.addr)
        elif entry.state is DirState.SHARED:
            entry.sharers.add(msg.src)
            self._send_data(msg.src, _DATA_S, msg.addr)
        else:  # EXCLUSIVE: recall data from the owner, downgrading it
            assert entry.owner is not None and entry.owner != msg.src, \
                f"owner re-requesting S for {msg.addr:#x}"
            self.stat_recalls.value += 1
            self._active[msg.addr] = _Transaction(msg, acks_needed=1, kind="gets_recall")
            self.net.send(self.node_id, entry.owner,
                          Message(_FWD_GET_S, msg.addr, self.node_id,
                                  word_addr=msg.word_addr))

    def _process_get_m(self, msg: Message) -> None:
        entry = self._entry(msg.addr)
        if entry.state is DirState.INVALID:
            entry.state = DirState.EXCLUSIVE
            entry.owner = msg.src
            self._send_data(msg.src, _DATA_M, msg.addr)
        elif entry.state is DirState.SHARED:
            targets = entry.sharers - {msg.src}
            if not targets:
                entry.state = DirState.EXCLUSIVE
                entry.sharers.clear()
                entry.owner = msg.src
                self._send_data(msg.src, _DATA_M, msg.addr)
                return
            self._active[msg.addr] = _Transaction(msg, acks_needed=len(targets),
                                                  kind="getm_inval")
            for target in sorted(targets):
                self.stat_invalidations.value += 1
                self.net.send(self.node_id, target,
                              Message(_INV, msg.addr, self.node_id,
                                      word_addr=msg.word_addr))
        else:  # EXCLUSIVE held elsewhere: invalidate the owner, recalling data
            assert entry.owner is not None and entry.owner != msg.src, \
                f"owner re-requesting M for {msg.addr:#x}"
            self.stat_invalidations.value += 1
            self._active[msg.addr] = _Transaction(msg, acks_needed=1, kind="getm_inval")
            self.net.send(self.node_id, entry.owner,
                          Message(_INV, msg.addr, self.node_id,
                                  word_addr=msg.word_addr))

    def _process_put_s(self, msg: Message) -> None:
        entry = self._entry(msg.addr)
        if entry.state is DirState.SHARED and msg.src in entry.sharers:
            entry.sharers.discard(msg.src)
            if not entry.sharers:
                entry.state = DirState.INVALID
        else:
            self.stat_stale_puts.value += 1
        self._ack_put(msg)

    def _process_put_e(self, msg: Message) -> None:
        entry = self._entry(msg.addr)
        if entry.state is DirState.EXCLUSIVE and entry.owner == msg.src:
            entry.state = DirState.INVALID
            entry.owner = None
        else:
            self.stat_stale_puts.value += 1
        self._ack_put(msg)

    def _process_put_m(self, msg: Message) -> None:
        entry = self._entry(msg.addr)
        if entry.state is DirState.EXCLUSIVE and entry.owner == msg.src:
            assert msg.data is not None, "PUT_M must carry data"
            self._backing[msg.addr] = msg.data
            self._touched.add(msg.addr)
            entry.state = DirState.INVALID
            entry.owner = None
        else:
            # The evictor was invalidated while its PUT_M was in flight; it
            # already surrendered (identical) data via INV_ACK.
            self.stat_stale_puts.value += 1
        self._ack_put(msg)

    def _ack_put(self, msg: Message) -> None:
        self.net.send(self.node_id, msg.src,
                      Message(_PUT_ACK, msg.addr, self.node_id))
        self._complete(msg.addr)

    # ----------------------------------------------------------- responses

    def _on_ack(self, msg: Message) -> None:
        txn = self._active.get(msg.addr)
        if txn is None or txn.kind == "pending":
            raise SimulationError(f"directory: ack with no open transaction: {msg}")
        if msg.data is not None:
            self._backing[msg.addr] = msg.data
            self._touched.add(msg.addr)
        entry = self._entry(msg.addr)

        if txn.kind == "gets_recall":
            requester = txn.msg.src
            if msg.mtype is _DOWNGRADE_ACK:
                # Owner kept a Shared copy.
                entry.state = DirState.SHARED
                entry.sharers = {entry.owner, requester}
                entry.owner = None
                self._send_data(requester, _DATA_S, msg.addr)
            else:
                # Owner dropped to I (eviction race or speculative rollback):
                # the requester becomes the sole, exclusive holder.
                entry.state = DirState.EXCLUSIVE
                entry.owner = requester
                entry.sharers.clear()
                self._send_data(requester, _DATA_E, msg.addr)
            return

        # getm_inval: count invalidation acks, then grant M.
        txn.acks_needed -= 1
        if txn.acks_needed > 0:
            return
        requester = txn.msg.src
        entry.state = DirState.EXCLUSIVE
        entry.sharers.clear()
        entry.owner = requester
        self._send_data(requester, _DATA_M, msg.addr)

    # ------------------------------------------------------------ helpers

    def _send_data(self, dst: int, mtype: MessageType, addr: int) -> None:
        """Fetch the block (L2/DRAM latency), send it, then release the
        block's transaction slot.  Completion must not precede injection:
        a queued transaction's probes would otherwise overtake this grant
        on the network."""
        # Inlined schedule_fast body (a calendar-bucket append).
        sim = self.sim
        time = sim._now + self._fetch_latency(addr)
        buckets = sim._buckets
        bucket = buckets.get(time)
        entry = (self._send_data_now, (dst, mtype, addr))
        if bucket is None:
            buckets[time] = [entry]
            _heappush(sim._times, time)
        else:
            bucket.append(entry)
        sim._pending += 1

    def _send_data_now(self, dst: int, mtype: MessageType, addr: int) -> None:
        data = list(self.backing_data(addr))
        self.net.send(self.node_id, dst, Message(mtype, addr, self.node_id, data=data))
        self._complete(addr)

    def _complete(self, addr: int) -> None:
        """Finish the current transaction and start the next queued one."""
        self._active.pop(addr, None)
        queue = self._pending.get(addr)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self._pending[addr]
            self._active[addr] = _Transaction(nxt, acks_needed=0, kind="pending")
            self.stat_requests.value += 1
            self._schedule_fast(self._directory_latency,
                                self._process_handlers[nxt.mtype], nxt)

    # ------------------------------------------------------------- debug

    def entry_state(self, addr: int) -> DirState:
        return self._entry(self.cache_config.block_of(addr)).state

    def sharers_of(self, addr: int) -> Set[int]:
        return set(self._entry(self.cache_config.block_of(addr)).sharers)

    def owner_of(self, addr: int) -> Optional[int]:
        return self._entry(self.cache_config.block_of(addr)).owner
