"""E13 deep fence synthesis: full default oracle axes over every
canonical litmus shape and both stronger targets.

The tier-1 suite synthesizes against a trimmed dynamic grid
(``tests/test_synth.py``); this benchmark runs the full default axes
-- every speculation mode and seeded skew retries -- and must still
recover exactly the known-minimal fence sets, across several seeds,
with the static oracle never hitting its witness cap.  It also regenerates the E13 table and asserts the cycle
economics: synthesized StoreLoad fences stall the machine with
speculation off, on-demand speculation wins the loss back, and the
directional fences MP/LB need are nearly free.
"""

import pytest

from repro.harness import e13_fence_synthesis
from repro.isa.instructions import FenceKind
from repro.sim.config import ConsistencyModel
from repro.verification.synth import synthesize_fences
from repro.workloads.litmus import canonical_litmus_ir

pytestmark = [pytest.mark.slow, pytest.mark.fuzz]

SC = ConsistencyModel.SC
TSO = ConsistencyModel.TSO

#: (workload, target) -> known-minimal fence set as (thread, kind) pairs.
EXPECTED = {
    ("sb", SC): [(0, FenceKind.STORE_LOAD), (1, FenceKind.STORE_LOAD)],
    ("sb", TSO): [],
    ("mp", SC): [(0, FenceKind.STORE_STORE), (1, FenceKind.LOAD_LOAD)],
    ("mp", TSO): [(0, FenceKind.STORE_STORE), (1, FenceKind.LOAD_LOAD)],
    ("lb", SC): [(0, FenceKind.LOAD_STORE), (1, FenceKind.LOAD_STORE)],
    ("lb", TSO): [(0, FenceKind.LOAD_STORE), (1, FenceKind.LOAD_STORE)],
}


@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("name,target",
                         sorted(EXPECTED, key=lambda k: (k[0], k[1].value)))
def test_full_axes_recover_minimal_sets(name, target, seed):
    shapes = canonical_litmus_ir()
    res = synthesize_fences(shapes[name], target, seed=seed)
    assert res.sufficient, res.describe()
    assert not res.capped
    got = sorted((p.thread, p.kind) for p in res.placements)
    assert got == sorted(EXPECTED[(name, target)]), res.describe()


def test_determinism_across_full_axes():
    shapes = canonical_litmus_ir()
    runs = [synthesize_fences(shapes["mp"], SC, seed=5) for _ in range(2)]
    assert runs[0].placements == runs[1].placements
    assert runs[0].oracle_queries == runs[1].oracle_queries
    assert runs[0].dynamic_runs == runs[1].dynamic_runs


def test_e13_table(run_once):
    result = run_once(e13_fence_synthesis)
    print()
    print(result.render())
    by_key = {(r[0], r[1]): r for r in result.rows}
    assert len(result.rows) == 6
    for (name, target), expected in EXPECTED.items():
        row = by_key[(name, target.value.upper())]
        assert row[3] == len(expected)
        assert result.data[f"{name}-{target.value}"]["synthesis"].sufficient
    # Economics: SB's StoreLoad fences stall without speculation and
    # on-demand claws the stall back; MP/LB's directional fences are
    # nearly free (no drain on this machine).
    sb = by_key[("sb", "SC")]
    assert sb[5] > sb[4]
    assert sb[6] < sb[5]
    for name in ("mp", "lb"):
        row = by_key[(name, "SC")]
        assert row[5] - row[4] <= 4
