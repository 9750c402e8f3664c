"""Sharded-vs-serial oracle equality: the exact-match grid.

The serial engine is the deterministic oracle.  On the configurations
below -- crossbar and mesh, both speculation modes, superblocks on and
off, multi-home directories, pair-scope link-fault plans, and node-fault
(chaos) plans -- a sharded run must reproduce the serial engine's result
*bit for bit*: same ``result_fingerprint`` (cycles, full stats snapshot,
registers, memory) and same event count, for every listed shard count.

Scope (the caveat docs/SHARDING.md spells out): the serial engine orders
same-cycle message arrivals at one endpoint by global send order, which
no shard can observe.  Points where two shards send to the same endpoint
on the same cycle -- pervasive on high-contention mesh links -- may
therefore settle those ties differently while still being correct and
internally deterministic.  This grid is curated to the tie-free region;
what holds *unconditionally* is covered by the other classes here:
``shards=1`` is the serial machine exactly, and the forked and inline
drivers are bit-identical to each other on every input.
"""

from dataclasses import replace

import pytest

from repro.faults import CRASH, PAUSE, FaultPlan, NodeFault, NodeFaultPlan
from repro.harness.parallel import (
    point_fingerprint,
    result_fingerprint,
    simulate_point,
)
from repro.sim.config import (
    InterconnectConfig,
    SpeculationMode,
    Topology,
)
from repro.sim.sharded import ShardingError, ShardLayout, run_sharded
from repro.system import System
from repro.workloads.locks import lock_contention
from repro.workloads.producer_consumer import pingpong
from repro.workloads.protocols import gossip, leader_election, replicated_log
from tests.conftest import small_config


def xbar5(n_cores, homes=1):
    """small_config with the crossbar link stretched to 5 cycles: a wider
    lookahead window, and the configuration most of the grid was
    curated on."""
    cfg = small_config(n_cores)
    cfg = replace(cfg, interconnect=replace(cfg.interconnect, link_latency=5))
    return replace(cfg, n_homes=homes) if homes != 1 else cfg


def mesh_cfg(n_cores, hop):
    return replace(small_config(n_cores),
                   interconnect=InterconnectConfig(
                       topology=Topology.MESH, mesh_hop_latency=hop))


#: pair-scope link-fault plan (the only scope sharding accepts active).
_PAIR_PLAN = FaultPlan(seed=5, jitter_prob=0.1, max_jitter=4, dup_prob=0.05,
                       rng_scope="pair")

#: (name, config, workload, fault_plan, node_plan, shard counts)
_GRID = [
    ("pingpong2-xbar", small_config(2), pingpong(1, rounds=6),
     None, None, (2,)),
    ("pingpong2-mesh", mesh_cfg(2, 2), pingpong(1, rounds=6),
     None, None, (2,)),
    ("pingpong4-xbar", small_config(4), pingpong(2, rounds=6),
     None, None, (2, 4)),
    ("pingpong8-xbar", small_config(8), pingpong(4, rounds=5),
     None, None, (2, 3, 4)),
    ("pingpong8-mesh", mesh_cfg(8, 2), pingpong(4, rounds=5),
     None, None, (2,)),
    ("gossip4-xbar-L5", xbar5(4), gossip(4),
     None, None, (2, 3, 4)),
    ("locks4-xbar-L5", xbar5(4),
     lock_contention(4, increments=6, think_cycles=5), None, None, (2, 4)),
    ("replog4-xbar-L5", xbar5(4), replicated_log(4),
     None, None, (2, 4)),
    ("gossip4-xbar-L5-spec",
     xbar5(4).with_speculation(SpeculationMode.CONTINUOUS), gossip(4),
     None, None, (2, 4)),
    ("election8-xbar-L3", small_config(8), leader_election(8),
     None, None, (2,)),
    ("election8-xbar-L5-homes4", xbar5(8, homes=4), leader_election(8),
     None, None, (2,)),
    ("gossip4-nosb-L5", replace(xbar5(4), superblocks=False), gossip(4),
     None, None, (2, 3, 4)),
    ("pingpong4-nosb-L5", replace(xbar5(4), superblocks=False),
     pingpong(2, rounds=6), None, None, (2, 3, 4)),
    ("gossip4-xbar-pairfault", small_config(4), gossip(4),
     _PAIR_PLAN, None, (2, 4)),
    ("pingpong4-xbar-pairfault", small_config(4), pingpong(2, rounds=6),
     _PAIR_PLAN, None, (2, 4)),
    ("gossip4-L5-crash", xbar5(4), gossip(4),
     None, NodeFaultPlan(faults=(NodeFault(2, CRASH, 400),)), (2, 4)),
    ("pingpong8-pause", small_config(8), pingpong(4, rounds=5),
     None, NodeFaultPlan(faults=(NodeFault(1, PAUSE, 300, 200),)), (2, 4)),
    ("pingpong4-chaos", small_config(4), pingpong(2, rounds=6),
     _PAIR_PLAN, NodeFaultPlan(faults=(NodeFault(1, PAUSE, 200, 150),)),
     (2, 4)),
]


def _serial(config, wl, fault_plan=None, node_plan=None):
    system = System(config, wl.programs, wl.initial_memory,
                    fault_plan=fault_plan, node_plan=node_plan)
    return system.run()


def _sharded(config, wl, shards, fault_plan=None, node_plan=None,
             mode="inline"):
    return run_sharded(config, wl.programs, wl.initial_memory, shards=shards,
                       fault_plan=fault_plan, node_plan=node_plan,
                       mode=mode)


class TestOracleGrid:
    """Every curated point: sharded == serial, bit for bit."""

    @pytest.mark.parametrize(
        "name,config,wl,fault_plan,node_plan,shard_counts", _GRID,
        ids=[point[0] for point in _GRID])
    def test_sharded_matches_serial(self, name, config, wl, fault_plan,
                                    node_plan, shard_counts):
        serial = _serial(config, wl, fault_plan, node_plan)
        expected = result_fingerprint(serial)
        for shards in shard_counts:
            sharded = _sharded(config, wl, shards, fault_plan, node_plan)
            assert sharded.events == serial.events, (name, shards)
            assert result_fingerprint(sharded) == expected, (name, shards)

    def test_one_grid_point_via_fork(self):
        # The forked transport on a real grid point (the rest use the
        # bit-identical inline driver to keep the suite fast).
        config, wl = xbar5(4), gossip(4)
        serial = _serial(config, wl)
        forked = _sharded(config, wl, 2, mode="fork")
        assert result_fingerprint(forked) == result_fingerprint(serial)
        assert forked.sharding["mode"] == "fork"


class TestUnconditionalInvariants:
    """Properties that hold on *every* input, on or off the grid."""

    def test_single_shard_is_the_serial_machine(self):
        # gossip8 on the default small_config is off the exact-match
        # grid (same-cycle ties); shards=1 must still be exact -- it is
        # literally the serial machine run through the sharded entry.
        config, wl = small_config(8), gossip(8)
        serial = _serial(config, wl)
        single = _sharded(config, wl, 1)
        assert result_fingerprint(single) == result_fingerprint(serial)
        assert single.sharding == {"mode": "single", "epochs": 0,
                                   "shards": 1}

    @pytest.mark.parametrize("config,wl,shards", [
        (small_config(8), gossip(8), 4),          # serial-divergent point
        (mesh_cfg(8, 2), gossip(8), 4),           # mesh, serial-divergent
        (xbar5(4), gossip(4), 2),                 # grid point
    ], ids=["gossip8-xbar", "gossip8-mesh", "gossip4-grid"])
    def test_fork_and_inline_are_bit_identical(self, config, wl, shards):
        # The process transport is invisible: the forked run equals the
        # inline run even where both diverge from the serial engine.
        inline = _sharded(config, wl, shards, mode="inline")
        forked = _sharded(config, wl, shards, mode="fork")
        assert result_fingerprint(forked) == result_fingerprint(inline)
        assert forked.events == inline.events

    def test_sharded_run_is_deterministic(self):
        config, wl = small_config(8), gossip(8)  # off-grid on purpose
        first = _sharded(config, wl, 4)
        second = _sharded(config, wl, 4)
        assert result_fingerprint(first) == result_fingerprint(second)


class TestRefusals:
    def test_commit_arbitration_refused(self):
        config = small_config(4).with_speculation(
            SpeculationMode.ON_DEMAND, commit_arbitration=True)
        wl = gossip(4)
        with pytest.raises(ShardingError, match="arbit"):
            _sharded(config, wl, 2)

    def test_global_scope_fault_plan_refused(self):
        plan = FaultPlan(seed=1, jitter_prob=0.2, max_jitter=3)  # global
        wl = gossip(4)
        with pytest.raises(ShardingError, match="rng_scope"):
            _sharded(small_config(4), wl, 2, fault_plan=plan)

    def test_inactive_global_plan_allowed(self):
        # A do-nothing plan perturbs nothing, so its scope is irrelevant.
        wl = gossip(4)
        result = _sharded(small_config(4), wl, 2,
                          fault_plan=FaultPlan(seed=1))
        wl.check(result)

    def test_zero_lookahead_refused(self):
        cfg = small_config(2)
        cfg = replace(cfg, interconnect=replace(cfg.interconnect,
                                                link_latency=0))
        with pytest.raises(ShardingError, match="lookahead"):
            _sharded(cfg, pingpong(1, rounds=2), 2)

    def test_more_shards_than_cores_refused(self):
        with pytest.raises(ShardingError):
            _sharded(small_config(2), pingpong(1, rounds=2), 3)

    def test_zero_shards_refused(self):
        with pytest.raises(ShardingError):
            _sharded(small_config(2), pingpong(1, rounds=2), 0)

    def test_node_fault_beyond_core_count_rejected(self):
        plan = NodeFaultPlan(faults=(NodeFault(7, CRASH, 100),))
        with pytest.raises(ValueError, match="core 7"):
            _sharded(small_config(4), gossip(4), 2, node_plan=plan)


class TestLayout:
    def test_slices_cover_everything_once(self):
        config = replace(small_config(8), n_homes=3)
        layout = ShardLayout(config, 3)
        cores = [c for slice_ in layout.core_slices for c in slice_]
        assert sorted(cores) == list(range(8))
        homes = sorted(h for slice_ in layout.home_slices for h in slice_)
        assert homes == list(range(3))
        assert len(layout.owner) == 8 + 3
        for shard, slice_ in enumerate(layout.core_slices):
            assert all(layout.owner[c] == shard for c in slice_)


class TestHarnessIntegration:
    def test_simulate_point_routes_to_sharded(self):
        config, wl = xbar5(4), gossip(4)
        serial, _ = simulate_point(config, wl.programs, wl.initial_memory)
        sharded, _ = simulate_point(config, wl.programs, wl.initial_memory,
                                    shards=2)
        assert sharded.sharding["shards"] == 2
        assert result_fingerprint(sharded) == result_fingerprint(serial)

    def test_point_fingerprint_stable_for_serial_shards(self):
        # shards 0 and 1 are both the serial engine and must hash
        # exactly as before sharding existed (historical fingerprints,
        # checkpoints and golden files stay valid).
        config, wl = small_config(4), gossip(4)
        base = point_fingerprint(config, wl)
        assert point_fingerprint(config, wl, shards=0) == base
        assert point_fingerprint(config, wl, shards=1) == base
        assert point_fingerprint(config, wl, shards=2) != base
        assert point_fingerprint(config, wl, shards=2) \
            != point_fingerprint(config, wl, shards=4)
