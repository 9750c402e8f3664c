"""Deep differential sweep: the one-pass checker against the checker it
replaced, over ten seeded campaigns.

The tier-1 suite (``tests/test_checker_oracle.py``) compares the two on
one seed of six programs; this sweep goes wide.  Each seed runs a whole
campaign shaped like perfbench's ``verify-campaign`` -- 80 programs,
2,880 checks, RMO cases served from their TSO twins -- and requires
both checkers to reach the same outcome on every check, on every
recording under every model's ordering check, and on two seeded mutants
of every recording, at least 500 of them violating per seed.  It also
compares every witness of the canonical litmus shapes: bare, with each
fence kind in every gap, and with one fence of each kind in each gap.
"""

import pytest

from repro.isa.instructions import FenceKind
from repro.verification.synth import enumerate_witness_logs
from repro.workloads.litmus import canonical_litmus_ir
from repro.workloads.randmix import FencePlacement, fence_gaps, insert_fences
from tests.test_checker_oracle import (
    MODELS,
    campaign_cases,
    compare,
    compare_each_axiom,
    compare_ordering,
    mutant_sweep,
    recorded_checks,
    recording,
    violated,
    witness_programs,
)

pytestmark = [pytest.mark.slow, pytest.mark.fuzz]

N_PROGRAMS = 80


@pytest.mark.parametrize("seed", range(10))
def test_campaign_and_mutants_match(seed):
    checks = recorded_checks(campaign_cases(seed, N_PROGRAMS))
    assert len(checks) == N_PROGRAMS * 36
    recordings = []
    for model, recorder in checks:
        base = recording(recorder)
        assert not violated(compare(base, model))
        compare_each_axiom(base)
        recordings.append((model, base))
    count, violating = mutant_sweep(recordings, seed, per_recording=2,
                                    every_model=True)
    print(f"seed {seed}: {len(checks)} checks, {count} mutants, "
          f"{violating} violating")
    assert count == 2 * len(recordings)
    assert violating >= 500, violating


@pytest.mark.parametrize("name", sorted(canonical_litmus_ir()))
def test_witnesses_match(name):
    threads = canonical_litmus_ir()[name]
    programs = list(witness_programs(threads)) + [
        insert_fences(threads, [FencePlacement(t, g, kind)])
        for t, g in fence_gaps(threads) for kind in FenceKind]
    witnesses = violating = 0
    for program in programs:
        for recorder in enumerate_witness_logs(program):
            base = recording(recorder)
            witnesses += 1
            for model in MODELS:
                violating += violated(compare_ordering(base, model))
                compare(base, model)
    assert witnesses and violating
