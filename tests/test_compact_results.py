"""A result that crosses a worker's pipe reads exactly as the one sent.

Sweep workers pickle each :class:`~repro.system.SystemResult` back to
the parent (and the result store pickles it to disk).  A result keeps
its memory image as one tuple of words per block, and its stats
registry pickles as name/value columns whose names are interned on
load.  These tests hold a pickled-and-loaded result to the live machine
it came from and to the in-process result, on every quick-grid point
pinned in ``tests/golden_fingerprints.json`` and on a ``drop-retry``
fuzz case; and they require the result to read any byte address as
:meth:`~repro.system.System.read_word` does.
"""

from __future__ import annotations

import pickle

import pytest

from repro.harness.experiments import e1_plan
from repro.harness.parallel import result_fingerprint
from repro.sim.stats import Accumulator, Histogram
from repro.system import System, SystemResult
from repro.verification import fuzz
from tests.test_fastpath_determinism import _quick_grids
from tests.test_fuzz_goldens import fuzz_golden_cases

_GRID_SPECS = [(f"{grid_id}/{spec.label}", spec)
               for grid_id, specs in _quick_grids().items()
               for spec in specs]


def _round_trip(result: SystemResult) -> SystemResult:
    return pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _run(spec):
    system = System(spec.config, spec.workload.programs,
                    spec.workload.initial_memory,
                    fault_plan=spec.fault_plan, node_plan=spec.node_plan)
    return system, system.run()


def _drop_retry_case():
    label, case = next((label, case) for label, case in fuzz_golden_cases()
                       if label.endswith("/drop-retry"))
    fuzz._twins.clear()  # simulate it here, not take a held twin's run
    system, _report = fuzz.execute_case(case)
    return label, system, SystemResult(system)


def _assert_loaded_reads_as_sent(system: System, result: SystemResult
                                 ) -> SystemResult:
    loaded = _round_trip(result)
    assert result_fingerprint(loaded) == result_fingerprint(result)
    snapshot = system.memory_snapshot()
    assert snapshot
    assert list(loaded.words()) == list(result.words()) == \
        sorted(snapshot.items())
    for addr, value in snapshot.items():
        assert loaded.read_word(addr) == value
    stats, again = result.stats, loaded.stats
    assert again.snapshot() == stats.snapshot()
    names = stats.names()
    assert again.sum(names) == stats.sum(names)
    for name in names:
        stat, copy = stats.get(name), again.get(name)
        assert type(copy) is type(stat) and copy.name == name
        if isinstance(stat, Accumulator):
            assert (copy.total, copy.count, copy.minimum, copy.maximum) == \
                (stat.total, stat.count, stat.minimum, stat.maximum)
        if isinstance(stat, Histogram):
            assert copy.log2 == stat.log2
            assert list(copy.items()) == list(stat.items())
            for fraction in (0.0, 0.25, 0.5, 0.9, 1.0):
                assert copy.percentile(fraction) == stat.percentile(fraction)
    return loaded


@pytest.mark.parametrize("spec", [spec for _, spec in _GRID_SPECS],
                         ids=[key for key, _ in _GRID_SPECS])
def test_loaded_grid_result_reads_as_sent(spec):
    system, result = _run(spec)
    _assert_loaded_reads_as_sent(system, result)


def test_grid_covers_the_histograms_e6_reads():
    # E6 reads each core's ``spec.N.episode_stores`` histogram; the
    # round trip above must see some with samples in them.
    _, result = _run(next(spec for key, spec in _GRID_SPECS
                          if key.endswith("|if-sc")))
    stores = [result.stats.get(name) for name in result.stats.names("spec")
              if name.endswith(".episode_stores")]
    assert stores and any(hist.count for hist in stores)


def test_loaded_drop_retry_fuzz_result_reads_as_sent():
    label, system, result = _drop_retry_case()
    assert system.fault_plan is not None, label
    _assert_loaded_reads_as_sent(system, result)


def test_loaded_results_share_their_stat_name_strings():
    specs = [spec for _, spec in _GRID_SPECS[:2]]
    first, second = (_round_trip(_run(spec)[1]) for spec in specs)
    names = {name: name for name in first.stats.names()}
    shared = [name for name in second.stats.names() if name in names]
    assert len(shared) == len(names)
    assert all(names[name] is name for name in shared)
    assert all(second.stats.get(name).name is names[name]
               for name in shared)


def test_result_reads_the_word_containing_any_byte_address():
    spec = e1_plan(n_cores=4, scale=0.3)[0]
    system, result = _run(spec)
    loaded = _round_trip(result)
    touched = system.memory_snapshot()
    assert any(touched.values())
    for addr in touched:
        for byte in range(addr, addr + 8):
            expected = system.read_word(byte)
            assert result.read_word(byte) == expected, hex(byte)
            assert loaded.read_word(byte) == expected, hex(byte)
    assert result.read_word(0x10083) == system.read_word(0x10083) == 36
