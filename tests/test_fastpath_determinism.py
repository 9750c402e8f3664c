"""Superblock fusion is semantically invisible, and the engine matches seed.

Two independent proofs that the hot-path overhaul changed nothing
observable:

* **fusion determinism** -- every grid point run with superblock
  fusion off (the ``fusion_off`` fixture of ``tests/conftest.py``)
  produces the same result fingerprint as the default run, which
  trace-compiles every loop span (the same points' results are pinned
  in ``tests/golden_engine_fingerprints.json``, see
  ``tests/test_engine_goldens.py``);
* **golden fingerprints** -- the quick E1/E9 grids reproduce, bit for
  bit, the fingerprints measured on the pre-overhaul engine (committed
  in ``tests/golden_fingerprints.json``).

A fingerprint (see :func:`repro.harness.parallel.result_fingerprint`)
hashes the cycle count, the full stats snapshot, every core's registers
and the architectural memory image -- equality means byte-identical
experiment tables.
"""

import json
import os
import sys

import pytest

from repro.harness.experiments import e1_plan, e9_plan
from repro.harness.parallel import result_fingerprint
from repro.isa.interpreter import superblock_spans
from repro.sim.config import SpeculationMode
from repro.system import System

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                            "golden_fingerprints.json")

# A cross-section of both grids, kept small enough for the default test
# pass: spin-heavy E1 points under every consistency model, plus E9
# scaling points at two core counts.
_DETERMINISM_SPECS = e1_plan(n_cores=2, scale=0.2) + \
    e9_plan(core_counts=(2, 4), scale=0.2)


def _chaos_specs():
    """One election + one gossip point under a composed chaos plan.

    Node-fault points disable fusion only on the *targeted* cores, so
    the superblock proofs below also cover the mixed case -- fused
    survivors running alongside an unfused, faulted victim.
    """
    from repro.faults import CRASH, PAUSE, FaultPlan, NodeFault, NodeFaultPlan
    from repro.harness.parallel import RunSpec
    from repro.sim.config import SystemConfig
    from repro.workloads.protocols import gossip, leader_election

    config = SystemConfig(n_cores=4)
    link = FaultPlan(seed=3, drop_prob=0.05, jitter_prob=0.1, max_jitter=5)
    return [
        RunSpec("chaos-election-crash", config, leader_election(4),
                fault_plan=link,
                node_plan=NodeFaultPlan(faults=(NodeFault(2, CRASH, 400),))),
        RunSpec("chaos-gossip-pause", config, gossip(4),
                fault_plan=link,
                node_plan=NodeFaultPlan(
                    faults=(NodeFault(1, PAUSE, 300, 400),))),
    ]


_CHAOS_SPECS = _chaos_specs()


def _run(spec):
    system = System(spec.config, spec.workload.programs,
                    spec.workload.initial_memory,
                    fault_plan=spec.fault_plan, node_plan=spec.node_plan)
    return system.run()


@pytest.mark.parametrize("spec", _DETERMINISM_SPECS,
                         ids=[s.label for s in _DETERMINISM_SPECS])
def test_superblocks_on_off_fingerprints_match(spec, fusion_off):
    """Trace-compiled execution is semantically invisible.

    Superblock fusion batches a span's register work into its head
    event but preserves the event *cadence* via relay entries, so
    cycles, event counts and the full stats fingerprint must be
    byte-identical with fusion disabled.
    """
    fused = _run(spec)
    with fusion_off():
        plain = _run(spec)
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.events == plain.events
    assert fused.cycles == plain.cycles


@pytest.mark.parametrize("spec", _CHAOS_SPECS,
                         ids=[s.label for s in _CHAOS_SPECS])
def test_chaos_points_superblocks_on_off_match(spec, fusion_off):
    """Fusion stays byte-invisible under chaos: plan-targeted cores are
    built unfused either way (a mid-superblock fault would otherwise
    settle at a different instruction boundary), and the untargeted
    survivors' fused execution changes nothing observable."""
    fused = _run(spec)
    with fusion_off():
        plain = _run(spec)
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.cycles == plain.cycles


def test_superblock_fusion_engages_on_spin_workloads():
    """The on/off proof above is vacuous if fusion never fires: at
    least the spin-heavy E1 points must retire a meaningful fraction
    of their dynamic instructions inside fused superblocks, every spin
    program must carry a loop span (only loop spans fuse), and a fused
    dispatch must on the whole retire more than one instruction."""
    spin = [s for s in _DETERMINISM_SPECS if "locks-ticket" in s.label]
    assert spin, "expected locks-ticket points in the determinism grid"
    for spec in spin:
        result = _run(spec)
        assert result.fusion_coverage() > 0.25, spec.label
        assert result.fused_instructions() > result.fused_blocks(), \
            spec.label
        for program in spec.workload.programs:
            assert superblock_spans(program), (spec.label, program.name)


@pytest.mark.parametrize("spec", _DETERMINISM_SPECS + _CHAOS_SPECS,
                         ids=[s.label for s in _DETERMINISM_SPECS
                              + _CHAOS_SPECS])
def test_fusion_counters_follow_the_loop_spans(spec):
    """Every point's fusion counters agree with its programs' loop spans.

    A core fuses nothing when its program has no loop span, when a
    node-fault plan targets it, or under CONTINUOUS speculation; these
    are the points whose on/off proof above compares two unfused runs.
    Every other core fuses, each fused dispatch retires at least one
    and at most its program's longest span of instructions, and no
    core fuses more instructions than it retires.
    """
    result = _run(spec)
    targeted = (spec.node_plan.affected_cores()
                if spec.node_plan is not None else frozenset())
    continuous = spec.config.speculation.mode is SpeculationMode.CONTINUOUS
    for core, program in zip(result.cores, spec.workload.programs):
        spans = superblock_spans(program)
        fused = (core.fused_instructions, core.fused_blocks)
        if not spans or core.core_id in targeted or continuous:
            assert fused == (0, 0), (spec.label, core.core_id)
            continue
        longest = max(span.stop - span.start for span in spans)
        assert 0 < core.fused_blocks <= core.fused_instructions \
            <= longest * core.fused_blocks, (spec.label, core.core_id, fused)
        assert core.fused_instructions <= core.instructions, \
            (spec.label, core.core_id)


def _golden():
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)


def _quick_grids():
    """The pinned grids: E1 at 4 cores and E9 at 2 and 4, scale 0.3."""
    return {"E1": e1_plan(n_cores=4, scale=0.3),
            "E9": e9_plan(core_counts=(2, 4), scale=0.3)}


def _golden_params():
    golden = _golden()
    return [pytest.param(spec, golden["grids"][grid_id][spec.label],
                         id=f"{grid_id}|{spec.label}")
            for grid_id, specs in _quick_grids().items() for spec in specs]


def test_golden_file_covers_current_grids():
    """Renaming points in a pinned grid must regenerate the golden file:
    it covers exactly the quick grids' labels."""
    golden = _golden()
    grids = _quick_grids()
    assert set(golden["grids"]) == set(grids)
    for grid_id, expected in golden["grids"].items():
        assert set(expected) == {s.label for s in grids[grid_id]}


@pytest.mark.parametrize("spec,expected", _golden_params())
def test_engine_reproduces_seed_fingerprints(spec, expected):
    # Every core trace-compiles its loop spans, so this run also proves
    # the goldens are byte-unchanged under trace-compiled execution.
    result = _run(spec)
    assert result_fingerprint(result) == expected, (
        f"{spec.label}: stats diverge from the pre-overhaul engine; "
        "if the simulated architecture intentionally changed, regenerate "
        "tests/golden_fingerprints.json (see docs/PERF.md)"
    )


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        sys.exit("usage: python -m tests.test_fastpath_determinism "
                 "--record SOURCE")
    doc = {"source": sys.argv[2], "grids": {
        grid_id: {spec.label: result_fingerprint(_run(spec))
                  for spec in specs}
        for grid_id, specs in _quick_grids().items()}}
    with open(_GOLDEN_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
