"""E11 deep consistency fuzzing: long seeded sweeps across the whole
model x speculation-mode x skew matrix.

The tier-1 suite runs a seconds-long smoke subset
(``tests/test_fuzz.py``); this benchmark goes wide -- hundreds of
random programs, three thread counts, every model -- and must find
*zero* violations on the faithful machine.  It also re-verifies that
both injected bugs are still caught at depth and that shrinking keeps
producing litmus-sized reproducers.
"""

import pytest

from repro.harness import e11_consistency_fuzz
from repro.sim.config import ConsistencyModel
from repro.verification.fuzz import fuzz_sweep

pytestmark = [pytest.mark.slow, pytest.mark.fuzz]


def test_e11_table(run_once):
    result = run_once(e11_consistency_fuzz, n_programs=10)
    print()
    print(result.render())
    faithful = [row for row in result.rows if row[0] == "faithful"]
    assert all(row[3] == 0 for row in faithful)
    broken = [row for row in result.rows if row[0].startswith("broken")]
    assert all(row[3] > 0 for row in broken)


@pytest.mark.parametrize("n_threads", [2, 3, 4])
def test_deep_clean_sweep(n_threads):
    report = fuzz_sweep(n_programs=60, seed=1000 + n_threads,
                        n_threads=n_threads, ops_per_thread=12,
                        skew_variants=3, stop_after=None)
    assert report.cases_run == 60 * len(ConsistencyModel) * 3 * 3
    assert report.clean, report.failures[0].message


def test_deep_injection_still_shrinks_small():
    report = fuzz_sweep(n_programs=40, seed=77, ops_per_thread=12,
                        models=[ConsistencyModel.SC],
                        inject="sc-load-no-drain", stop_after=3)
    assert report.failures
    for failure in report.failures:
        assert failure.shrunk.instruction_count() <= 12
