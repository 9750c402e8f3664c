"""Tests for the 2D mesh interconnect."""

import gc
import math
import random

import pytest

from dataclasses import replace

import repro.system as system_module
from repro.harness.parallel import result_fingerprint
from repro.interconnect.mesh import Mesh
from repro.sim.config import InterconnectConfig, SystemConfig, Topology
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.system import System, run_system
from repro.workloads import locks
from repro.workloads.barriers import stencil
from repro.workloads.protocols import gossip, leader_election, replicated_log
from tests.conftest import small_config


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive(self, msg):
        self.received.append((self.sim.now, msg))


def make_mesh(n_nodes, hop_latency=2, link_issue_interval=1):
    sim = Simulator()
    mesh = Mesh(sim, n_nodes, StatsRegistry(), hop_latency=hop_latency,
                link_issue_interval=link_issue_interval)
    sinks = []
    for node in range(n_nodes):
        sink = Sink(sim)
        mesh.attach(node, sink)
        sinks.append(sink)
    return sim, mesh, sinks


class TestGeometry:
    def test_grid_dimensions_cover_nodes(self):
        for n in (1, 2, 3, 4, 5, 8, 9, 16, 17):
            mesh = Mesh(Simulator(), n, StatsRegistry())
            assert mesh.width * mesh.height >= n
            coords = [mesh.coordinates(i) for i in range(n)]
            assert len(set(coords)) == n  # one tile per node

    def test_directory_node_at_centre(self):
        # The highest id (System's directory) sits at the central tile.
        mesh = Mesh(Simulator(), 9, StatsRegistry())  # 3x3
        assert mesh.coordinates(8) == (1, 1)

    def test_route_is_xy(self):
        mesh = Mesh(Simulator(), 16, StatsRegistry())  # 4x4
        src = next(i for i in range(16) if mesh.coordinates(i) == (0, 0))
        dst = next(i for i in range(16) if mesh.coordinates(i) == (2, 2))
        path = mesh.route(src, dst)
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_route_to_self(self):
        mesh = Mesh(Simulator(), 4, StatsRegistry())
        assert len(mesh.route(0, 0)) == 1


class TestDelivery:
    def test_latency_scales_with_hops(self):
        sim, mesh, sinks = make_mesh(9, hop_latency=3)
        corner = next(i for i in range(9) if mesh.coordinates(i) == (0, 0))
        far = next(i for i in range(9) if mesh.coordinates(i) == (2, 2))
        mesh.send(corner, far, "m")
        sim.run()
        t, _ = sinks[far].received[0]
        assert t == 3 * 4  # 4 hops x 3 cycles

    def test_fifo_per_pair(self):
        sim, mesh, sinks = make_mesh(9)
        for i in range(6):
            mesh.send(0, 8, i)
        sim.run()
        assert [m for _, m in sinks[8].received] == list(range(6))

    def test_link_contention_serialises(self):
        sim, mesh, sinks = make_mesh(4, hop_latency=1, link_issue_interval=4)
        a = next(i for i in range(4) if mesh.coordinates(i) == (0, 0))
        b = next(i for i in range(4) if mesh.coordinates(i) == (1, 0))
        mesh.send(a, b, "x")
        mesh.send(a, b, "y")
        sim.run()
        times = [t for t, _ in sinks[b].received]
        assert times[1] - times[0] >= 4

    def test_unknown_nodes_rejected(self):
        sim, mesh, _ = make_mesh(4)
        with pytest.raises(KeyError):
            mesh.send(0, 99, "m")
        with pytest.raises(KeyError):
            mesh.attach(99, Sink(sim))

    def test_double_attach_rejected(self):
        sim, mesh, _ = make_mesh(2)
        with pytest.raises(ValueError):
            mesh.attach(0, Sink(sim))

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh(Simulator(), 0, StatsRegistry())
        with pytest.raises(ValueError):
            Mesh(Simulator(), 4, StatsRegistry(), hop_latency=0)


class TestSystemOnMesh:
    def _mesh_config(self, n_cores):
        cfg = small_config(n_cores)
        return replace(cfg, interconnect=InterconnectConfig(
            topology=Topology.MESH, mesh_hop_latency=2))

    def test_workload_correct_on_mesh(self):
        wl = locks.lock_contention(4, increments=6, think_cycles=5)
        result = run_system(self._mesh_config(4), wl.programs,
                            check_invariants=True)
        wl.check(result)

    def test_mesh_vs_crossbar_both_correct_different_timing(self):
        wl = locks.lock_contention(4, increments=6, think_cycles=5)
        mesh_r = run_system(self._mesh_config(4), wl.programs)
        xbar_r = run_system(small_config(4), wl.programs)
        wl.check(mesh_r)
        wl.check(xbar_r)
        assert mesh_r.cycles != xbar_r.cycles  # genuinely different fabric

    def test_speculation_on_mesh(self):
        from repro.sim.config import SpeculationMode
        wl = locks.lock_contention(4, increments=6, think_cycles=5)
        config = self._mesh_config(4).with_speculation(SpeculationMode.ON_DEMAND)
        result = run_system(config, wl.programs, check_invariants=True)
        wl.check(result)


class TestMeshFastpathDeterminism:
    """The mesh fast path: inline calendar-bucket hops.  Its results are
    pinned in tests/golden_mesh_fingerprints.json and
    tests/golden_engine_fingerprints.json."""

    def test_fast_send_skips_event_allocation(self):
        # Mesh hops allocate no handle objects: traversal entries land
        # directly in the calendar buckets.
        sim, mesh, sinks = make_mesh(9, hop_latency=2)
        corner = next(i for i in range(9) if mesh.coordinates(i) == (0, 0))
        far = next(i for i in range(9) if mesh.coordinates(i) == (2, 2))
        mesh.send(corner, far, "m")
        assert sim._pending >= 1
        # Every queued entry is a plain (fn, args) tuple.
        for bucket in sim._buckets.values():
            for entry in bucket:
                assert type(entry) is tuple
        sim.run()
        assert sinks[far].received


class ReferenceMesh:
    """The per-hop mesh model the link-id mesh replaced, kept as an oracle.

    It shares no code with :class:`Mesh`: its own placement, a route
    list of tiles per send, a link-state dict keyed by tile pairs, and
    one ``_traverse`` event per hop that claims the next link on
    arrival (the final one delivers), scheduled through
    ``schedule_fast``/``schedule_fast_at``.
    """

    def __init__(self, sim, n_nodes, stats, hop_latency, link_issue_interval):
        self.sim = sim
        self.hop_latency = hop_latency
        self.link_issue_interval = link_issue_interval
        self.width = max(1, math.ceil(math.sqrt(n_nodes)))
        self.height = math.ceil(n_nodes / self.width)
        self.inflight = 0
        self._endpoints = {}
        self._coords = {}
        self._link_free_at = {}
        tiles = [(x, y) for y in range(self.height)
                 for x in range(self.width)][:n_nodes]
        centre = (self.width // 2, min(self.height // 2, self.height - 1))
        order = list(range(n_nodes))
        if centre in tiles:
            i = tiles.index(centre)
            order[i], order[-1] = order[-1], order[i]
        for tile, node in zip(tiles, order):
            self._coords[node] = tile
        self.stat_messages = stats.counter("mesh.messages")
        self.stat_hops = stats.accumulator("mesh.hops")
        self.stat_link_wait = stats.accumulator("mesh.link_wait_cycles")

    def attach(self, node_id, endpoint):
        self._endpoints[node_id] = endpoint

    def disconnect(self):
        self._endpoints.clear()

    def _route(self, src, dst):
        (x, y), (dx, dy) = self._coords[src], self._coords[dst]
        path = [(x, y)]
        while x != dx:
            x += 1 if dx > x else -1
            path.append((x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append((x, y))
        return path

    def send(self, src, dst, msg):
        if src not in self._endpoints or dst not in self._endpoints:
            raise KeyError((src, dst))
        path = self._route(src, dst)
        self.stat_messages.increment()
        self.stat_hops.add(len(path) - 1)
        self.inflight += 1
        if len(path) == 1:
            self.sim.schedule_fast(self.hop_latency, self._deliver, dst, msg)
            return
        self._traverse(path, 0, dst, msg, self.sim.now)

    def _traverse(self, path, index, dst, msg, arrived_at):
        if index == len(path) - 1:
            self._deliver(dst, msg)
            return
        link = (path[index], path[index + 1])
        depart = max(arrived_at, self._link_free_at.get(link, 0))
        self._link_free_at[link] = depart + self.link_issue_interval
        self.stat_link_wait.add(depart - arrived_at)
        arrive = depart + self.hop_latency
        self.sim.schedule_fast_at(arrive, self._traverse, path, index + 1,
                                  dst, msg, arrive)

    def _deliver(self, dst, msg):
        self.inflight -= 1
        self._endpoints[dst].receive(msg)


class Relay:
    """Endpoint that logs (cycle, payload) and forwards payloads that
    still have hops to go, from inside its delivery event."""

    def __init__(self, sim, net, node, n_nodes):
        self.sim, self.net, self.node, self.n_nodes = sim, net, node, n_nodes
        self.log = []

    def receive(self, msg):
        self.log.append((self.sim.now, msg))
        tag, ttl = msg
        if ttl:
            nxt = (self.node * 7 + tag) % self.n_nodes
            self.net.send(self.node, nxt, (tag, ttl - 1))


def seeded_traffic(seed):
    """Mesh shape plus a schedule of same-cycle send batches.

    Batches fire from scheduled events, several per cycle, so link
    claims tie in arrival cycle and order by bucket position.  Kinds:
    random pairs, bursts into one node, and flows crossing the grid in
    both directions."""
    rng = random.Random(seed)
    n_nodes = rng.randint(2, 17)
    hop_latency = rng.randint(1, 4)
    interval = rng.randint(1, 3)
    batches = []
    tag = 0
    for _ in range(rng.randint(4, 24)):
        cycle = rng.randrange(24)
        kind = rng.randrange(3)
        sends = []
        for _ in range(rng.randint(1, 6)):
            if kind == 0:
                src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
            elif kind == 1:
                src, dst = rng.randrange(n_nodes), n_nodes - 1
            else:
                a = rng.randrange(n_nodes)
                src, dst = (a, n_nodes - 1 - a) if rng.random() < 0.5 \
                    else (n_nodes - 1 - a, a)
            sends.append((src, dst, (tag, rng.randrange(3))))
            tag += 1
        batches.append((cycle, sends))
    return n_nodes, hop_latency, interval, batches


#: The link-claiming mesh under test; a parameter so the test ids keep
#: their ``mesh`` suffix.
NETWORKS = pytest.mark.parametrize("net_cls", [Mesh], ids=["mesh"])


def drive(net_cls, seed):
    """Run the seeded traffic through ``net_cls``; return every
    endpoint's log, ``inflight`` after each cycle, and both mesh
    accumulators."""
    n_nodes, hop_latency, interval, batches = seeded_traffic(seed)
    sim = Simulator()
    stats = StatsRegistry()
    net = net_cls(sim, n_nodes, stats, hop_latency=hop_latency,
                  link_issue_interval=interval)
    relays = [Relay(sim, net, node, n_nodes) for node in range(n_nodes)]
    for node, relay in enumerate(relays):
        net.attach(node, relay)

    def fire(sends):
        for src, dst, payload in sends:
            net.send(src, dst, payload)

    for cycle, sends in batches:
        sim.schedule_fast_at(cycle, fire, sends)
    inflight = []
    while sim.pending_events:
        sim.run(until=sim.now + 1)
        inflight.append(net.inflight)
    accumulators = [(a.total, a.count, a.minimum, a.maximum)
                    for a in (net.stat_hops, net.stat_link_wait)]
    return [r.log for r in relays], inflight, accumulators


class TestLinkClaimOracle:
    """The mesh's link-id hop claims links exactly as the tile-pair
    model did: same delivery cycle and order at every endpoint, same
    in-flight count after every cycle, same hop and link-wait
    statistics."""

    @NETWORKS
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_mesh(self, seed, net_cls):
        assert drive(net_cls, seed) == drive(ReferenceMesh, seed)

    def test_traffic_contends(self):
        # The comparison is vacuous unless links are actually contended
        # and some routes cross padding tiles of non-square grids.
        waits = crossing = 0
        for seed in range(60):
            n_nodes, _, _, batches = seeded_traffic(seed)
            _, _, (_, (wait_total, _, _, _)) = drive(Mesh, seed)
            waits += wait_total > 0
            ref = ReferenceMesh(Simulator(), n_nodes, StatsRegistry(), 1, 1)
            occupied = set(ref._coords.values())
            crossing += any(
                tile not in occupied
                for _, sends in batches for src, dst, _ in sends
                for tile in ref._route(src, dst))
        assert waits == 60 and crossing >= 10


#: Whole-machine traffic for the oracle: workload factories by name.
MACHINE_WORKLOADS = {
    "election": leader_election,
    "gossip": gossip,
    "locks": lambda n: locks.lock_contention(n, increments=4, think_cycles=5),
    "replog": replicated_log,
    "stencil": lambda n: stencil(n, phases=2, cells_per_thread=2,
                                 compute_cycles=2),
}

#: (cores, directory homes): 3, 4, 6, 8, 9 and 11 nodes, so 2x2, 3x2,
#: 3x3 and 4x3 grids, full and with a padding tile, one to four homes.
MACHINE_SHAPES = [(2, 1), (3, 1), (4, 2), (6, 2), (8, 1), (7, 4)]

#: (hop latency, link issue interval)
MACHINE_TIMINGS = [(1, 1), (2, 3)]


def mesh_machine(cores, homes, hop, interval):
    return replace(small_config(cores), n_homes=homes,
                   interconnect=InterconnectConfig(
                       topology=Topology.MESH, mesh_hop_latency=hop,
                       port_issue_interval=interval))


def machine_points():
    return [(name, cores, homes, hop, interval)
            for name in MACHINE_WORKLOADS
            for cores, homes in MACHINE_SHAPES
            for hop, interval in MACHINE_TIMINGS]


def run_machine(name, cores, homes, hop, interval):
    wl = MACHINE_WORKLOADS[name](cores)
    system = System(mesh_machine(cores, homes, hop, interval), wl.programs,
                    wl.initial_memory)
    return wl, system.run()


class TestMachineLinkClaimOracle:
    """A whole machine on the mesh runs exactly as on the tile-pair
    model: coherence traffic between cores and directory homes, sent
    from inside delivery events, gives the same events and the same
    result fingerprint (cycles, every statistic, registers, memory)."""

    @pytest.mark.parametrize(
        "name,cores,homes,hop,interval", machine_points(),
        ids=[f"{n}-{c}c{h}h-hop{l}x{i}" for n, c, h, l, i in machine_points()])
    def test_matches_reference_mesh(self, monkeypatch, name, cores, homes,
                                    hop, interval):
        wl, fast = run_machine(name, cores, homes, hop, interval)
        wl.check(fast)
        monkeypatch.setattr(system_module, "Mesh", ReferenceMesh)
        _, reference = run_machine(name, cores, homes, hop, interval)
        assert fast.events == reference.events
        assert result_fingerprint(fast) == result_fingerprint(reference)

    def test_machines_contend(self):
        # The comparison is vacuous unless the protocol's traffic
        # actually waits for links.
        waits = [run_machine(*point)[1].stats.get("mesh.link_wait_cycles")
                 for point in machine_points()]
        assert sum(wait.total > 0 for wait in waits) >= 55


class TestFlitLifetime:
    @NETWORKS
    def test_no_reference_cycle_survives_delivery(self, net_cls):
        sim = Simulator()
        mesh = net_cls(sim, 9, StatsRegistry(), hop_latency=2,
                       link_issue_interval=1)
        sinks = [Sink(sim) for _ in range(9)]
        for node, sink in enumerate(sinks):
            mesh.attach(node, sink)
        gc.collect()
        gc.disable()
        try:
            for src in range(9):
                for dst in range(9):
                    mesh.send(src, dst, (src, dst))
            sim.run()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert sum(len(s.received) for s in sinks) == 81
