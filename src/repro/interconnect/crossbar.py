"""Crossbar interconnect with per-source-port serialisation.

Model: every endpoint owns an injection port that can accept one
message every ``port_issue_interval`` cycles; once injected, a message
is delivered ``link_latency`` cycles later.  Because the injection port
serialises in send order and the flight latency is constant, delivery
between any (source, destination) pair is FIFO -- a property the
coherence protocol relies on (responses from the directory to a core
cannot overtake one another).

Contention therefore appears only at injection (a bursty source queues
behind itself), which matches a reasonably provisioned crossbar and
keeps the model analysable.  Per-message occupancy statistics feed the
interconnect-utilisation numbers in the harness.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Any, Dict, Protocol

from repro.sim.config import InterconnectConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class Endpoint(Protocol):
    """Anything attachable to the crossbar."""

    def receive(self, msg: Any) -> None:
        """Called when a message is delivered to this endpoint."""
        ...  # pragma: no cover - protocol definition


class Crossbar:
    """All-to-all switch connecting L1 controllers and the directory."""

    def __init__(self, sim: Simulator, config: InterconnectConfig, stats: StatsRegistry,
                 name: str = "xbar"):
        self.sim = sim
        self.config = config
        self.name = name
        self._endpoints: Dict[int, Endpoint] = {}
        self._port_free_at: Dict[int, int] = {}
        #: accepted but not yet delivered (read by liveness diagnostics)
        self.inflight = 0
        self._sent = stats.counter(f"{name}.messages")
        self._queue_cycles = stats.accumulator(f"{name}.injection_queue_cycles")
        # Hot-path caches: one send per coherence message, so every
        # attribute walk here is paid millions of times per experiment.
        self._issue_interval = config.port_issue_interval
        self._link_latency = config.link_latency
        self._deliver_h = self._deliver

    def attach(self, node_id: int, endpoint: Endpoint) -> None:
        """Register ``endpoint`` under ``node_id``; ids must be unique."""
        if node_id in self._endpoints:
            raise ValueError(f"node id {node_id} already attached")
        self._endpoints[node_id] = endpoint
        self._port_free_at[node_id] = 0

    def disconnect(self) -> None:
        """Drop the endpoint map and the cached delivery handler, each a
        path back to this crossbar (see ``System.run``)."""
        self._endpoints.clear()
        del self._deliver_h

    def send(self, src: int, dst: int, msg: Any) -> None:
        """Inject ``msg`` from ``src``; deliver to ``dst`` after transit.

        Injection waits for the source port to be free (serialising
        bursts); transit then takes ``link_latency`` cycles.
        """
        ports = self._port_free_at
        if src not in ports:
            raise KeyError(f"unknown source node {src}")
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination node {dst}")
        sim = self.sim
        now = sim._now
        free = ports[src]
        inject_at = free if free > now else now
        ports[src] = inject_at + self._issue_interval
        # Inlined Accumulator.add(inject_at - now):
        delta = inject_at - now
        q = self._queue_cycles
        q.total += delta
        q.count += 1
        if q.minimum is None or delta < q.minimum:
            q.minimum = delta
        if q.maximum is None or delta > q.maximum:
            q.maximum = delta
        self._sent.value += 1
        self.inflight += 1
        # Inlined schedule_fast_at(inject_at + link_latency, _deliver, ...):
        time = inject_at + self._link_latency
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._deliver_h, (dst, msg))]
            _heappush(sim._times, time)
        else:
            bucket.append((self._deliver_h, (dst, msg)))
        sim._pending += 1

    def _deliver(self, dst: int, msg: Any) -> None:
        self.inflight -= 1
        self._endpoints[dst].receive(msg)
