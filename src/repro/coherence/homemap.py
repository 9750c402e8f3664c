"""Directory home-node mapping: block address -> directory home.

Historically the machine had exactly one directory (node id
``n_cores``) and the address-to-home function was the constant map.
With ``n_homes > 1`` directory state is spread over several home nodes
so the directory is not a single serialisation point on large machines.
The L1s and :class:`~repro.system.System` (preloads, memory reads)
route a block through the one map object built here, so every request
for a block reaches the same home.

Two maps:

* :class:`IdentityHomeMap` -- everything homes to index 0.  Used when
  ``n_homes == 1``; byte-identical to the pre-multi-home machine.
* :class:`ConsistentHashHomeMap` -- classic consistent-hash ring with
  virtual nodes over block addresses.  Balanced (each home gets an
  ~equal slice of the address space) and remap-stable: growing the ring
  from H to H+1 homes moves only ~1/(H+1) of the addresses.

Hashing is an explicit 64-bit mix (splitmix64 finaliser), **not**
Python's ``hash()``: the builtin is salted per process, and a point
must place its blocks identically in every process that runs it -- a
sweep worker, the in-process serial sweep, or a later run whose result
store serves the point -- or its results would depend on where it ran.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """splitmix64 finaliser: a fast, high-quality, process-stable mix."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class IdentityHomeMap:
    """The single-directory map: every block homes to index 0."""

    n_homes = 1

    def __init__(self, first_node: int):
        self.first_node = first_node

    def home_index(self, block_addr: int) -> int:
        return 0

    def node_id(self, block_addr: int) -> int:
        return self.first_node


class ConsistentHashHomeMap:
    """Consistent-hash ring over block addresses with virtual nodes.

    Each home contributes ``vnodes`` points on a 64-bit ring; a block
    address hashes to a ring position and is owned by the next point
    clockwise.  ``vnodes`` trades lookup-table size against balance;
    the default keeps every home within a few percent of its fair share
    (the unit tests pin this).
    """

    def __init__(self, n_homes: int, first_node: int, vnodes: int = 64):
        if n_homes < 1:
            raise ValueError("n_homes must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.n_homes = n_homes
        self.first_node = first_node
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for home in range(n_homes):
            for v in range(vnodes):
                points.append((_mix64((home << 20) | v), home))
        points.sort()
        self._ring_keys = [key for key, _ in points]
        self._ring_homes = [home for _, home in points]
        #: block address -> node id, filled on each block's first lookup
        self._nodes: Dict[int, int] = {}

    def home_index(self, block_addr: int) -> int:
        keys = self._ring_keys
        index = bisect_left(keys, _mix64(block_addr))
        if index == len(keys):
            index = 0
        return self._ring_homes[index]

    def node_id(self, block_addr: int) -> int:
        node = self._nodes.get(block_addr)
        if node is None:
            node = self._nodes[block_addr] = \
                self.first_node + self.home_index(block_addr)
        return node


def build_home_map(n_homes: int, first_node: int):
    """The home map of a machine with ``n_homes`` homes."""
    if n_homes == 1:
        return IdentityHomeMap(first_node)
    return ConsistentHashHomeMap(n_homes, first_node)
