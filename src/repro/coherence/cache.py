"""Set-associative cache array with LRU replacement.

This is pure storage + replacement policy: protocol logic lives in the
L1 controller.  Each resident block carries its MESI state, a dirty
flag, the block's data words, and the InvisiFence speculation bits
(speculatively-read / speculatively-written) plus the per-word access
sets used by the idealised word-granularity ablation.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Set

from repro.sim.config import CacheConfig


class CacheState(enum.Enum):
    """MESI stable states (transient states live in the controller's MSHRs)."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


# ``readable``/``writable`` are per-member constants; plain attributes
# (assigned once below) make the L1's permission checks attribute loads
# instead of property-descriptor calls -- they sit on every access.
for _state in CacheState:
    _state.readable = _state is not CacheState.INVALID
    _state.writable = _state in (CacheState.EXCLUSIVE, CacheState.MODIFIED)
del _state


class CacheBlock:
    """One resident cache block."""

    __slots__ = (
        "addr", "state", "dirty", "data",
        "spec_read", "spec_written", "spec_read_words", "spec_written_words",
    )

    def __init__(self, addr: int, state: CacheState, data: List[int]):
        self.addr = addr
        self.state = state
        self.dirty = False
        self.data = data
        self.spec_read = False
        self.spec_written = False
        self.spec_read_words: Set[int] = set()
        self.spec_written_words: Set[int] = set()

    @property
    def speculative(self) -> bool:
        return self.spec_read or self.spec_written

    def clear_speculation(self) -> None:
        self.spec_read = False
        self.spec_written = False
        self.spec_read_words.clear()
        self.spec_written_words.clear()

    def __repr__(self) -> str:
        flags = ""
        if self.dirty:
            flags += "d"
        if self.spec_read:
            flags += "r"
        if self.spec_written:
            flags += "w"
        return f"<Block {self.addr:#x} {self.state.value}{(':' + flags) if flags else ''}>"


class CacheArray:
    """Set-associative block storage with true-LRU replacement.

    The array never makes protocol decisions; it only answers lookups,
    performs insertions (reporting what must be evicted) and maintains
    recency.  Blocks are keyed by block-aligned address.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        n_sets = config.n_sets
        self._sets: List[Dict[int, CacheBlock]] = [{} for _ in range(n_sets)]
        # Recency per set as an insertion-ordered dict (LRU first, MRU
        # last): move-to-end is del + reinsert, both O(1), instead of the
        # O(assoc) list.remove.  ``_mru`` caches each set's newest key so
        # the touch of an already-MRU block (spins hammering one block)
        # is a single compare; it must be kept exact -- a stale value
        # would silently change eviction order.
        self._lru: List[Dict[int, None]] = [{} for _ in range(n_sets)]
        self._mru: List[int] = [-1] * n_sets
        # Geometry scalars cached once: the config's block_of/set_index
        # recompute offset_bits/n_sets per call, and both sit on the
        # per-access hot path.
        self._block_mask = ~(config.block_bytes - 1)
        self._offset_bits = config.offset_bits
        self._set_mask = n_sets - 1
        self._word_mask = config.block_bytes - 1

    @property
    def words_per_block(self) -> int:
        return self.config.block_bytes // 8

    def _set_for(self, addr: int) -> int:
        return (addr >> self._offset_bits) & self._set_mask

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the resident block containing ``addr`` (or None).

        ``touch=True`` (default) updates LRU recency.
        """
        block_addr = addr & self._block_mask
        index = (block_addr >> self._offset_bits) & self._set_mask
        block = self._sets[index].get(block_addr)
        if block is not None and touch and self._mru[index] != block_addr:
            order = self._lru[index]
            del order[block_addr]
            order[block_addr] = None
            self._mru[index] = block_addr
        return block

    def victim_for(self, addr: int) -> Optional[CacheBlock]:
        """The block that would be evicted to make room for ``addr``.

        Returns None when the set has a free way (no eviction needed).
        Raises if ``addr`` is already resident.
        """
        block_addr = addr & self._block_mask
        index = (block_addr >> self._offset_bits) & self._set_mask
        members = self._sets[index]
        if block_addr in members:
            raise ValueError(f"block {block_addr:#x} already resident")
        if len(members) < self.config.assoc:
            return None
        return members[next(iter(self._lru[index]))]

    def lru_block(self, addr: int) -> Optional[CacheBlock]:
        """Least-recently-used resident block of ``addr``'s set (or None
        if the set is empty).  Unlike :meth:`victim_for` this answers
        even when the set has free ways -- the controller evicts early
        when outstanding fills have reserved those ways."""
        index = ((addr & self._block_mask) >> self._offset_bits) & self._set_mask
        order = self._lru[index]
        if not order:
            return None
        return self._sets[index][next(iter(order))]

    def insert(self, addr: int, state: CacheState, data: List[int]) -> CacheBlock:
        """Insert a block (the caller must have evicted the victim first)."""
        block_addr = addr & self._block_mask
        index = (block_addr >> self._offset_bits) & self._set_mask
        members = self._sets[index]
        if block_addr in members:
            raise ValueError(f"block {block_addr:#x} already resident")
        if len(members) >= self.config.assoc:
            raise ValueError(f"set {index} is full; evict before inserting")
        if len(data) != self.words_per_block:
            raise ValueError(
                f"block data must have {self.words_per_block} words, got {len(data)}"
            )
        block = CacheBlock(block_addr, state, data)
        members[block_addr] = block
        self._lru[index][block_addr] = None
        self._mru[index] = block_addr
        return block

    def remove(self, addr: int) -> CacheBlock:
        """Remove and return the block containing ``addr``."""
        block_addr = addr & self._block_mask
        index = (block_addr >> self._offset_bits) & self._set_mask
        block = self._sets[index].pop(block_addr, None)
        if block is None:
            raise KeyError(f"block {block_addr:#x} not resident")
        order = self._lru[index]
        del order[block_addr]
        if self._mru[index] == block_addr:
            self._mru[index] = next(reversed(order)) if order else -1
        return block

    def set_occupancy(self, addr: int) -> int:
        """Number of resident blocks in the set that ``addr`` maps to."""
        index = ((addr & self._block_mask) >> self._offset_bits) & self._set_mask
        return len(self._sets[index])

    def __iter__(self) -> Iterator[CacheBlock]:
        for s in self._sets:
            yield from s.values()

    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)

    def speculative_blocks(self) -> List[CacheBlock]:
        """All blocks with SR or SW set (used by commit / rollback)."""
        return [b for b in self if b.speculative]

    def word_index(self, addr: int) -> int:
        """Index of the word containing byte address ``addr`` within its block."""
        return (addr & self._word_mask) >> 3
