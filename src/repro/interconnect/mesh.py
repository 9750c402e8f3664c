"""2D mesh interconnect with XY dimension-ordered routing.

An alternative to the crossbar for the scaling studies: cores occupy a
``width x height`` grid (the directory sits at an extra, configurable
tile), messages hop link by link (X first, then Y), and every directed
link serialises one message per ``link_issue_interval`` cycles, so
congestion around the directory tile is modelled.

Delivery between any (src, dst) pair remains FIFO -- XY routing is
deterministic, every message of a pair follows the same path, and each
link is a FIFO queue -- which is the property the coherence protocol
requires.

Each directed link has a static id, ``4 * tile index + direction``
(tile index ``y * width + x``; directions east, west, south, north),
so link state is one flat list and a route is a tuple of ints, cached
per (src, dst) pair on its first send.  A message in flight is one
mutable *flit* record, ``[links, index, dst, msg, arrived, entry]``:
the route, the next link to claim, the destination, the payload, the
cycle the flit reached its current tile, and the flit's one calendar
entry.  Every hop is still its own event -- a link is claimed when the
flit reaches the link's tile, in (arrival cycle, bucket position)
order, and that order decides same-cycle races (docs/PERF.md, "Mesh
hot path").
"""

from __future__ import annotations

import math
from heapq import heappush as _heappush
from typing import Any, Dict, List, Tuple

from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: (dx, dy) of each link direction; a link's id is 4 * tile + direction.
_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class Mesh:
    """Dimension-ordered 2D mesh.

    Node ids 0..n_nodes-1 map row-major onto the grid; the node with the
    highest id (the directory, by System convention) is placed at the
    grid's centre tile to match common home-node placement.
    """

    def __init__(self, sim: Simulator, n_nodes: int, stats: StatsRegistry,
                 hop_latency: int = 2, link_issue_interval: int = 1,
                 name: str = "mesh"):
        if n_nodes < 1:
            raise ValueError("mesh needs at least one node")
        if hop_latency < 1:
            raise ValueError("hop_latency must be >= 1")
        if link_issue_interval < 1:
            raise ValueError("link_issue_interval must be >= 1")
        self.sim = sim
        self.name = name
        self.hop_latency = hop_latency
        self.link_issue_interval = link_issue_interval
        self.width = max(1, math.ceil(math.sqrt(n_nodes)))
        self.height = math.ceil(n_nodes / self.width)
        self._endpoints: Dict[int, Any] = {}
        #: accepted but not yet delivered (read by liveness diagnostics)
        self.inflight = 0
        self._coords: Dict[int, Tuple[int, int]] = {}
        self._tiles: Dict[Tuple[int, int], int] = {}
        #: link id -> first cycle the link is free again
        self._link_free_at: List[int] = [0] * (4 * self.width * self.height)
        #: (src, dst) -> link ids, filled on the pair's first send
        self._routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._place(n_nodes)

        self.stat_messages = stats.counter(f"{name}.messages")
        self.stat_hops = stats.accumulator(f"{name}.hops")
        self.stat_link_wait = stats.accumulator(f"{name}.link_wait_cycles")

        # ``_hop`` claims a flit's next link and re-appends the flit's
        # entry (or, after the last link, its delivery): a closure with
        # the calendar append inlined.
        self._hop = self._make_hop()

    def _place(self, n_nodes: int) -> None:
        """Row-major placement, with the last node (the directory) swapped
        into the central tile."""
        tiles = [(x, y) for y in range(self.height) for x in range(self.width)]
        tiles = tiles[:n_nodes]
        centre = (self.width // 2, min(self.height // 2, self.height - 1))
        last = n_nodes - 1
        order = list(range(n_nodes))
        if centre in tiles:
            centre_index = tiles.index(centre)
            order[centre_index], order[last] = order[last], order[centre_index]
        for tile, node in zip(tiles, order):
            self._coords[node] = tile
            self._tiles[tile] = node

    # ------------------------------------------------------------- wiring

    def attach(self, node_id: int, endpoint: Any) -> None:
        if node_id not in self._coords:
            raise KeyError(f"node {node_id} has no tile on this mesh")
        if node_id in self._endpoints:
            raise ValueError(f"node id {node_id} already attached")
        self._endpoints[node_id] = endpoint

    def disconnect(self) -> None:
        """Drop the endpoint map and the hop closure, each a path back to
        this mesh (see ``System.run``)."""
        self._endpoints.clear()
        del self._hop

    def coordinates(self, node_id: int) -> Tuple[int, int]:
        return self._coords[node_id]

    def route(self, src: int, dst: int) -> list:
        """The XY path (list of tiles, inclusive of both ends)."""
        (x, y), (dx, dy) = self._coords[src], self._coords[dst]
        path = [(x, y)]
        while x != dx:
            x += 1 if dx > x else -1
            path.append((x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append((x, y))
        return path

    def links(self, src: int, dst: int) -> Tuple[int, ...]:
        """The XY path as directed link ids, one per hop."""
        path = self.route(src, dst)
        width = self.width
        return tuple(4 * (y * width + x) + _DIRECTIONS.index((bx - x, by - y))
                     for (x, y), (bx, by) in zip(path, path[1:]))

    def link_target(self, link: int) -> Tuple[int, int]:
        """The tile a link enters."""
        tile, direction = divmod(link, 4)
        dx, dy = _DIRECTIONS[direction]
        return tile % self.width + dx, tile // self.width + dy

    # ------------------------------------------------------------- sending

    def send(self, src: int, dst: int, msg: Any) -> None:
        links = self._routes.get((src, dst))
        if links is None:
            if src not in self._endpoints:
                raise KeyError(f"unknown source node {src}")
            if dst not in self._endpoints:
                raise KeyError(f"unknown destination node {dst}")
            links = self._routes[src, dst] = self.links(src, dst)
        self.stat_messages.value += 1
        self.stat_hops.add(len(links))
        self.inflight += 1
        now = self.sim._now
        if not links:
            # Same-tile delivery (src == dst): one hop_latency, no link.
            self.sim.schedule_fast_at(now + self.hop_latency, self._deliver,
                                      dst, msg)
            return
        # The first link is claimed now, inside the sender's event.
        flit = [links, 0, dst, msg, now, None]
        flit[5] = (self._hop, (flit,))
        self._hop(flit)

    def _make_hop(self):
        """The hop: one closure over the mesh's constants."""
        free_at = self._link_free_at
        interval = self.link_issue_interval
        latency = self.hop_latency
        wait_stat = self.stat_link_wait
        deliver = self._deliver
        sim = self.sim
        buckets = sim._buckets
        times = sim._times

        def hop(flit):
            links, index, dst, msg, arrived, entry = flit
            link = links[index]
            free = free_at[link]
            # Inlined Accumulator.add(depart - arrived).  Waits are never
            # negative, so a zero wait moves the minimum only while it
            # is unset or positive, and the maximum only while unset.
            if arrived >= free:
                depart = arrived
                wait_stat.count += 1
                if wait_stat.minimum != 0:
                    if wait_stat.maximum is None:
                        wait_stat.maximum = 0
                    wait_stat.minimum = 0
            else:
                depart = free
                wait = free - arrived
                wait_stat.total += wait
                wait_stat.count += 1
                if wait_stat.minimum is None or wait < wait_stat.minimum:
                    wait_stat.minimum = wait
                if wait_stat.maximum is None or wait > wait_stat.maximum:
                    wait_stat.maximum = wait
            free_at[link] = depart + interval
            arrive = depart + latency
            index += 1
            if index == len(links):
                flit[5] = None          # the flit's last use: break the cycle
                entry = (deliver, (dst, msg))
            else:
                flit[1] = index
                flit[4] = arrive
            # Inlined schedule_fast_at(arrive, ...):
            bucket = buckets.get(arrive)
            if bucket is None:
                buckets[arrive] = [entry]
                _heappush(times, arrive)
            else:
                bucket.append(entry)
            sim._pending += 1

        return hop

    def _deliver(self, dst: int, msg: Any) -> None:
        self.inflight -= 1
        self._endpoints[dst].receive(msg)
