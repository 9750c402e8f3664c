"""Mesh points reproduce the results pinned before the mesh hot path.

``tests/golden_fingerprints.json`` covers only crossbar points, so a
change to the mesh's link arbitration could pass every serial test
while moving every mesh result.  ``tests/golden_mesh_fingerprints.json``
pins the result fingerprint, event count and cycle count of a grid of
mesh points, recorded on the commit its ``source`` names:

* the four sharing-bound kernels of the repository benchmark's
  mesh-contention workload (``locks-tas``, ``locks-partitioned``,
  ``producer-consumer``, ``barrier-reduction``) at 8 cores (scale 0.2)
  and 16 cores (scale 0.1), with 1 and 8 directory homes, hop latency
  4, under base-SC and IF-SC -- 32 points;
* one gossip point;
* one point under E12's ``drop-retry`` link-fault plan.

Regenerate (only for an intended change of the simulated machine) with
``PYTHONPATH=src python -m tests.test_mesh_goldens --record "<source>"``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

from repro.faults.plan import fault_scenarios
from repro.harness.parallel import RunSpec, result_fingerprint
from repro.harness.runner import six_point_configs
from repro.sim.config import InterconnectConfig, SystemConfig, Topology
from repro.system import System
from repro.workloads.protocols import gossip
from repro.workloads.suite import standard_suite

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                            "golden_mesh_fingerprints.json")

KERNELS = ("locks-tas", "locks-partitioned", "producer-consumer",
           "barrier-reduction")
CONFIGS = ("base-sc", "if-sc")


def mesh_config(n_cores: int, n_homes: int) -> SystemConfig:
    return replace(SystemConfig(n_cores=n_cores, n_homes=n_homes),
                   interconnect=InterconnectConfig(topology=Topology.MESH,
                                                   mesh_hop_latency=4))


def mesh_golden_specs():
    specs = []
    for n_cores, scale in ((8, 0.2), (16, 0.1)):
        suite = standard_suite(n_cores, scale)
        for n_homes in (1, 8):
            grid = six_point_configs(mesh_config(n_cores, n_homes))
            for kernel in KERNELS:
                for name in CONFIGS:
                    specs.append(RunSpec(
                        f"{n_cores}c/{n_homes}h/{kernel}/{name}",
                        grid[name], suite[kernel]))
    specs.append(RunSpec("8c/4h/gossip/base-sc",
                         six_point_configs(mesh_config(8, 4))["base-sc"],
                         gossip(8)))
    specs.append(RunSpec("8c/8h/locks-tas/if-sc/drop-retry",
                         six_point_configs(mesh_config(8, 8))["if-sc"],
                         standard_suite(8, 0.2)["locks-tas"],
                         fault_plan=fault_scenarios(seed=1)["drop-retry"]))
    return specs


_SPECS = mesh_golden_specs()


def _observe(spec):
    result = System(spec.config, spec.workload.programs,
                    spec.workload.initial_memory,
                    fault_plan=spec.fault_plan).run()
    spec.workload.check(result)
    return {"fingerprint": result_fingerprint(result),
            "events": result.events, "cycles": result.cycles}


def _golden():
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_covers_the_grid():
    assert set(_golden()["points"]) == {spec.label for spec in _SPECS}


@pytest.mark.parametrize("spec", _SPECS, ids=[s.label for s in _SPECS])
def test_mesh_point_reproduces_pinned_result(spec):
    assert _observe(spec) == _golden()["points"][spec.label], (
        f"{spec.label}: the mesh result moved; if the simulated machine "
        "changed on purpose, regenerate tests/golden_mesh_fingerprints.json")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        sys.exit("usage: python -m tests.test_mesh_goldens --record SOURCE")
    doc = {"source": sys.argv[2],
           "points": {spec.label: _observe(spec) for spec in _SPECS}}
    with open(_GOLDEN_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
