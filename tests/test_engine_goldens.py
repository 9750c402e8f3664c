"""The event engine reproduces the results pinned before it lost its twin.

Same-cycle event order decides crossbar arbitration and hit/miss races,
and so which speculation episodes roll back.  These points once proved
that order by running every hot path twice, through two engines.  They
are now pinned instead: ``tests/golden_engine_fingerprints.json`` holds
the result fingerprint, event count and cycle count of each point,
recorded on the commit its ``source`` names, where every entry was also
checked against its superblocks-off run and its run on the
second engine.  The points:

* ``grid/`` -- the determinism grid, ``e1_plan(2, 0.2)`` plus
  ``e9_plan((2, 4), 0.2)`` (33 points);
* ``chaos/`` -- one election and one gossip point under composed link
  and node-fault plans;
* ``nodefault/`` -- a crash and a pause plan on per-core counters, run
  under the watchdog;
* ``mesh/`` -- four small mesh points (locks, speculating locks, gossip,
  multi-home gossip);
* ``mem/`` -- the 24 points of ``mem_plan(2, 0.2)``;
* ``serial/`` -- three small crossbar and mesh points: gossip on a
  latency-5 crossbar, ping-pong on 8 cores and on a 2-core mesh.  The
  prefix names the serial side of a comparison with the since-deleted
  sharded engine.

Every point is checked with superblock fusion on and again with it off
(the ``fusion_off`` fixture of ``tests/conftest.py``); fusion must leave
fingerprint, events and cycles untouched.

Regenerate (only for an intended change of the simulated machine) with
``PYTHONPATH=src python -m tests.test_engine_goldens --record "<source>"``.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from typing import NamedTuple, Optional

import pytest

from repro.faults import CRASH, PAUSE, FaultPlan, NodeFault, NodeFaultPlan, Watchdog
from repro.harness.experiments import e1_plan, e9_plan, mem_plan
from repro.harness.parallel import result_fingerprint
from repro.sim.config import InterconnectConfig, SpeculationMode, SystemConfig, Topology
from repro.system import System
from repro.workloads.base import Workload
from repro.workloads.locks import lock_contention
from repro.workloads.producer_consumer import pingpong
from repro.workloads.protocols import gossip, leader_election
from tests.conftest import counter_workload, small_config

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                            "golden_engine_fingerprints.json")


class Point(NamedTuple):
    label: str
    config: SystemConfig
    workload: Workload
    fault_plan: Optional[FaultPlan] = None
    node_plan: Optional[NodeFaultPlan] = None
    watchdog: bool = False


def _mesh(config: SystemConfig, hop: int, n_homes: int = 1) -> SystemConfig:
    return replace(config, n_homes=n_homes,
                   interconnect=InterconnectConfig(topology=Topology.MESH,
                                                   mesh_hop_latency=hop))


def _link5(config: SystemConfig) -> SystemConfig:
    return replace(config, interconnect=replace(config.interconnect,
                                                link_latency=5))


def engine_golden_points():
    points = [Point("grid/" + s.label, s.config, s.workload)
              for s in e1_plan(n_cores=2, scale=0.2)
              + e9_plan(core_counts=(2, 4), scale=0.2)]

    link = FaultPlan(seed=3, drop_prob=0.05, jitter_prob=0.1, max_jitter=5)
    points += [
        Point("chaos/election-crash", SystemConfig(n_cores=4),
              leader_election(4), link,
              NodeFaultPlan(faults=(NodeFault(2, CRASH, 400),))),
        Point("chaos/gossip-pause", SystemConfig(n_cores=4), gossip(4), link,
              NodeFaultPlan(faults=(NodeFault(1, PAUSE, 300, 400),))),
    ]

    counters = counter_workload(2, iters=50)
    points += [
        Point("nodefault/crash", SystemConfig(n_cores=2), counters,
              node_plan=NodeFaultPlan(seed=0,
                                      faults=(NodeFault(1, CRASH, 200),)),
              watchdog=True),
        Point("nodefault/pause", SystemConfig(n_cores=2), counters,
              node_plan=NodeFaultPlan(seed=0,
                                      faults=(NodeFault(1, PAUSE, 200, 400),)),
              watchdog=True),
    ]

    lock = lock_contention(4, increments=6, think_cycles=5)
    points += [
        Point("mesh/locks", _mesh(small_config(4), 2), lock),
        Point("mesh/locks-spec", _mesh(small_config(4), 2).with_speculation(
            SpeculationMode.CONTINUOUS), lock),
        Point("mesh/gossip", _mesh(small_config(8), 2), gossip(8)),
        Point("mesh/gossip-multihome", _mesh(small_config(8), 2, n_homes=4),
              gossip(8)),
    ]

    points += [Point("mem/" + s.label, s.config, s.workload)
               for s in mem_plan(n_cores=2, scale=0.2)]

    points += [
        Point("serial/gossip4-L5", _link5(small_config(4)), gossip(4)),
        Point("serial/pingpong8", small_config(8), pingpong(4, rounds=5)),
        Point("serial/pingpong2-mesh", _mesh(small_config(2), 2),
              pingpong(1, rounds=6)),
    ]
    return points


_POINTS = engine_golden_points()


def build(point: Point) -> System:
    return System(point.config, point.workload.programs,
                  point.workload.initial_memory, fault_plan=point.fault_plan,
                  node_plan=point.node_plan)


def observe(system: System, watchdog: bool = False) -> dict:
    result = system.run(watchdog=Watchdog(system) if watchdog else None)
    return {"fingerprint": result_fingerprint(result),
            "events": result.events, "cycles": result.cycles}


def _golden():
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_covers_the_points():
    labels = [point.label for point in _POINTS]
    assert len(labels) == len(set(labels)) == 68
    assert set(_golden()["points"]) == set(labels)


@pytest.mark.parametrize("superblocks", [True, False], ids=["fused", "plain"])
@pytest.mark.parametrize("point", _POINTS, ids=[p.label for p in _POINTS])
def test_point_reproduces_pinned_result(point, superblocks, fusion_off):
    with nullcontext() if superblocks else fusion_off():
        observed = observe(build(point), point.watchdog)
    assert observed == _golden()["points"][point.label], (
        f"{point.label}: the engine result moved; if the simulated machine "
        "changed on purpose, regenerate tests/golden_engine_fingerprints.json")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        sys.exit("usage: python -m tests.test_engine_goldens --record SOURCE")
    # The ``plain`` parametrisation then checks every entry unfused.
    recorded = {point.label: observe(build(point), point.watchdog)
                for point in _POINTS}
    doc = {"source": sys.argv[2], "points": recorded}
    with open(_GOLDEN_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
