"""Litmus fuzz cases reproduce the results pinned before construction
was shared across a campaign.

``tests/golden_fingerprints.json`` and the mesh goldens pin workload
points only; no tier-1 golden covers a litmus case.  So
``tests/golden_fuzz_fingerprints.json`` pins the result fingerprint,
event count and cycle count of a grid shaped like the repository
benchmark's ``verify-campaign`` workload, recorded on the commit its
``source`` names:

* 3 seeded 2-thread random litmus programs of 8 ops per thread, each
  under SC/TSO/RMO x the fuzzer's 3 speculation modes x 2 drawn skews x
  {fault-free, E12's ``drop-retry`` plan reseeded per run} -- 108 cases;
* one more program over the same model x speculation x plan grid (its
  first skew only) with superblock fusion off -- 18 cases.

Every case runs through :func:`repro.verification.fuzz.execute_case`,
so it is also checked against its own model's axioms.  Run in order,
each RMO case takes its TSO twin's finished run;
``tests/test_fuzz_twins.py`` runs them fresh.

Regenerate (only for an intended change of the simulated machine) with
``PYTHONPATH=src python -m tests.test_fuzz_goldens --record "<source>"``.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import replace

import pytest

from repro.faults.plan import fault_scenarios
from repro.harness.parallel import result_fingerprint
from repro.sim.config import ConsistencyModel
from repro.system import SystemResult
from repro.verification.fuzz import (
    SKEW_CHOICES,
    SWEEP_SPECS,
    FuzzCase,
    execute_case,
)
from repro.workloads.randmix import random_litmus_ops

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                            "golden_fuzz_fingerprints.json")

SEED = 0
N_PROGRAMS = 3
OPS_PER_THREAD = 8


def fuzz_golden_cases():
    """``(label, FuzzCase)`` for every pinned case, in campaign order."""
    rng = random.Random(SEED)
    drop_retry = fault_scenarios(seed=SEED)["drop-retry"]
    cases = []
    for index in range(N_PROGRAMS + 1):
        prog_seed = rng.randrange(2 ** 31)
        threads = tuple(tuple(ops) for ops in
                        random_litmus_ops(2, OPS_PER_THREAD, seed=prog_seed))
        skew_sets = [tuple(rng.choice(SKEW_CHOICES) for _ in range(2))
                     for _ in range(2)]
        fuse = index < N_PROGRAMS
        if not fuse:
            skew_sets = skew_sets[:1]
        for model in ConsistencyModel:
            for si, spec in enumerate(SWEEP_SPECS):
                plans = {"clean": None,
                         "drop-retry": replace(
                             drop_retry,
                             seed=(prog_seed * 31 + si) & 0x7FFFFFFF)}
                for ki, skews in enumerate(skew_sets):
                    for plan_name, plan in plans.items():
                        label = (f"p{index}/{model.value}/{spec.value}/"
                                 f"k{ki}/{plan_name}"
                                 + ("" if fuse else "/superblocks-off"))
                        cases.append((label, FuzzCase(
                            threads=threads, model=model, spec=spec,
                            skews=skews, seed=prog_seed, fault_plan=plan,
                            superblocks=fuse)))
    return cases


_CASES = fuzz_golden_cases()


def observe(case: FuzzCase) -> dict:
    """Fingerprint, events and cycles of one checked fuzz case."""
    system, _report = execute_case(case)
    result = SystemResult(system)
    return {"fingerprint": result_fingerprint(result),
            "events": result.events, "cycles": result.cycles}


def golden_points() -> dict:
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)["points"]


def test_golden_file_covers_the_grid():
    assert len(_CASES) == 126
    assert set(golden_points()) == {label for label, _ in _CASES}


@pytest.mark.parametrize("label,case", _CASES, ids=[c[0] for c in _CASES])
def test_fuzz_case_reproduces_pinned_result(label, case):
    assert observe(case) == golden_points()[label], (
        f"{label}: the fuzz result moved; if the simulated machine changed "
        "on purpose, regenerate tests/golden_fuzz_fingerprints.json")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        sys.exit("usage: python -m tests.test_fuzz_goldens --record SOURCE")
    doc = {"source": sys.argv[2],
           "points": {label: observe(case) for label, case in _CASES}}
    with open(_GOLDEN_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
