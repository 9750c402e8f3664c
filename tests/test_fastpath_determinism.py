"""Superblock fusion is semantically invisible, and the engine matches seed.

Two independent proofs that the hot-path overhaul changed nothing
observable:

* **fusion determinism** -- every grid point run with superblocks off,
  and with every span forced through either superblock executor,
  produces the same result fingerprint as the default run (the same
  points' results are pinned in ``tests/golden_engine_fingerprints.json``,
  see ``tests/test_engine_goldens.py``);
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

import pytest

from repro.harness.bench import default_grids
from repro.harness.experiments import e1_plan, e9_plan
from repro.harness.parallel import result_fingerprint
from repro.isa.interpreter import superblock_spans
from repro.system import System
from tests.conftest import run_each_executor

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
def test_superblocks_on_off_fingerprints_match(spec):
    """Trace-compiled execution is semantically invisible.

    Superblock fusion batches a span's register work into its head
    event but preserves the event *cadence* via relay entries, so
    cycles, event counts and the full stats fingerprint must be
    byte-identical with fusion disabled.
    """
    fused = _run(spec)
    plain = System(spec.config.with_superblocks(False),
                   spec.workload.programs,
                   spec.workload.initial_memory).run()
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.events == plain.events
    assert fused.cycles == plain.cycles


@pytest.mark.parametrize("spec", _CHAOS_SPECS,
                         ids=[s.label for s in _CHAOS_SPECS])
def test_chaos_points_superblocks_on_off_match(spec):
    """Fusion stays byte-invisible under chaos: plan-targeted cores are
    built unfused either way (a mid-superblock fault would otherwise
    settle at a different instruction boundary), and the untargeted
    survivors' fused execution changes nothing observable."""
    fused = _run(spec)
    plain = System(spec.config.with_superblocks(False),
                   spec.workload.programs, spec.workload.initial_memory,
                   fault_plan=spec.fault_plan,
                   node_plan=spec.node_plan).run()
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.cycles == plain.cycles


def test_superblock_fusion_engages_on_spin_workloads():
    """The on/off proof above is vacuous if fusion never fires: at
    least the spin-heavy E1 points must retire a meaningful fraction
    of their dynamic instructions inside fused superblocks.  The fusion
    counters cannot tell the two executors apart, so every spin program
    must also carry a loop span -- one the core trace-compiles."""
    spin = [s for s in _DETERMINISM_SPECS if "locks-ticket" in s.label]
    assert spin, "expected locks-ticket points in the determinism grid"
    for spec in spin:
        result = _run(spec)
        assert result.fusion_coverage() > 0.25, spec.label
        assert result.mean_superblock_length() >= 2.0, spec.label
        for program in spec.workload.programs:
            assert any(span.loops for span in superblock_spans(program)), \
                (spec.label, program.name)


def _executor_view(result):
    """Everything the two superblock executors must agree on."""
    return (result_fingerprint(result), result.events, result.cycles,
            [(c.fused_instructions, c.fused_blocks) for c in result.cores])


def _assert_executors_interchangeable(spec, monkeypatch):
    results = run_each_executor(monkeypatch, lambda: _run(spec))
    views = {name: _executor_view(r) for name, r in results.items()}
    assert views["compiled"] == views["default"]
    assert views["uncompiled"] == views["default"]
    assert results["default"].fused_instructions() > 0, "fusion never fired"
    return results["default"]


@pytest.mark.parametrize("spec", _DETERMINISM_SPECS + _CHAOS_SPECS,
                         ids=[s.label for s in _DETERMINISM_SPECS
                              + _CHAOS_SPECS])
def test_compiled_and_uncompiled_span_executors_match(spec, monkeypatch):
    """The trace-compiled and the uncompiled superblock executors are
    interchangeable: running every span through either one reproduces
    the default run's fingerprint, event and cycle counts, and each
    core's fusion counters."""
    _assert_executors_interchangeable(spec, monkeypatch)


def test_span_executors_match_across_speculation_rollback(monkeypatch):
    """Same proof on the rollback point of test_superblocks.py: fused
    spans re-executed after a rollback count the same either way."""
    spec = next(s for s in e9_plan(core_counts=(4,), scale=0.2)
                if s.label == "4|barrier-stencil|if-sc")
    result = _assert_executors_interchangeable(spec, monkeypatch)
    violations = sum(v for k, v in result.stats.snapshot().items()
                     if k.endswith(".violations"))
    assert violations > 0, "expected at least one rollback on this point"


def _golden():
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)


def _golden_params():
    golden = _golden()
    grids = default_grids(quick=True)
    params = []
    for grid_id, specs in grids.items():
        expected = golden["grids"].get(grid_id)
        if expected is None:
            # Bench-only grid (MEM): events/sec tracking, not pinned to
            # seed fingerprints -- tests/golden_engine_fingerprints.json
            # pins the 2-core MEM points instead.
            continue
        for spec in specs:
            params.append(pytest.param(spec, expected[spec.label],
                                       id=f"{grid_id}|{spec.label}"))
    return params


def test_golden_file_covers_current_grids():
    """Renaming points in a pinned grid must regenerate the golden file.

    Grids absent from the golden file (the MEM bench grid) are
    deliberately unpinned; every pinned grid must still exist and cover
    exactly the committed labels.
    """
    golden = _golden()
    grids = default_grids(quick=True)
    assert set(golden["grids"]) <= set(grids)
    for grid_id, expected in golden["grids"].items():
        assert set(expected) == {s.label for s in grids[grid_id]}


@pytest.mark.parametrize("spec,expected", _golden_params())
def test_engine_reproduces_seed_fingerprints(spec, expected):
    # The default configuration has superblocks enabled, so this run
    # also proves the goldens are byte-unchanged under trace-compiled
    # execution (ISSUE 7 acceptance).
    assert spec.config.superblocks
    result = _run(spec)
    assert result_fingerprint(result) == expected, (
        f"{spec.label}: stats diverge from the pre-overhaul engine; "
        "if the simulated architecture intentionally changed, regenerate "
        "tests/golden_fingerprints.json (see docs/PERF.md)"
    )
