"""Smoke tests for the experiment harness at reduced scale.

The full-scale shape assertions live in ``benchmarks/``; here we check
that every experiment runs, produces rows, renders, and carries the raw
data the benchmarks rely on.
"""

import pytest

from repro.harness import (
    all_experiments,
    e1_ordering_breakdown,
    e2_transparency,
    e3_modes,
    e4_violations,
    e6_storage,
    e7_commit_arbitration,
    e8_store_buffer,
    e9_scaling,
    e10_system_parameters,
)


def test_registry_complete():
    registry = all_experiments()
    assert list(registry) == [f"E{i}" for i in range(1, 15)]


def test_e1_small():
    result = e1_ordering_breakdown(n_cores=2, scale=0.1)
    assert len(result.rows) == 7 * 3  # workloads x models
    assert "ordering" in result.render()
    for bd in result.data.values():
        bd.check_conservation()


def test_e2_small():
    result = e2_transparency(n_cores=2, scale=0.1)
    assert len(result.rows) == 7
    for name, cycles in result.data.items():
        assert set(cycles) == {"base-sc", "base-tso", "base-rmo",
                               "if-sc", "if-tso", "if-rmo"}
        assert all(c > 0 for c in cycles.values())


def test_e3_small():
    result = e3_modes(n_cores=2, scale=0.1)
    assert len(result.rows) == 7 * 2


def test_e4_small():
    result = e4_violations(n_cores=2)
    assert ("granularity", "block") in result.data
    assert ("l1_kb", 64) in result.data


def test_e6_small():
    result = e6_storage(n_cores=2, scale=0.1)
    assert result.data["invisifence_bytes"] > 0
    ratios = [row[3] for row in result.rows]
    assert ratios == sorted(ratios)  # monotone in depth


def test_e7_small():
    result = e7_commit_arbitration(scale=0.1, core_counts=(2,))
    assert len(result.rows) == 2


def test_e8_small():
    result = e8_store_buffer(n_cores=2, scale=0.1)
    assert len(result.rows) == 6


def test_e9_small():
    result = e9_scaling(core_counts=(2,), scale=0.1)
    assert len(result.rows) == 2


def test_e10_static():
    result = e10_system_parameters()
    text = result.render()
    assert "MESI" in text and "DRAM" in text
    assert result.data["config"].n_cores == 8


def test_csv_export(tmp_path):
    result = e10_system_parameters()
    csv_text = result.to_csv()
    assert csv_text.splitlines()[0] == "parameter,value"
    path = result.write_csv(str(tmp_path))
    assert path.endswith("e10.csv")
    with open(path) as handle:
        assert handle.read() == csv_text


def test_ablation_registry():
    from repro.harness import all_ablations
    assert list(all_ablations()) == ["A1", "A2", "A3", "A4", "A5", "A6"]


def test_a6_small():
    from repro.harness.ablations import a6_energy
    result = a6_energy(n_cores=2, scale=0.1)
    assert len(result.rows) == 6
    for (name, label), (run, report) in result.data.items():
        assert report.total > 0


def test_a2_small():
    from repro.harness import a2_coalescing
    result = a2_coalescing(n_cores=2, scale=0.1)
    assert len(result.rows) == 4


def test_a3_small():
    from repro.harness import a3_rollback_strategy
    result = a3_rollback_strategy(n_cores=2)
    assert len(result.rows) == 4


def test_a4_small():
    from repro.harness import a4_store_prefetch
    result = a4_store_prefetch(n_cores=2, depths=(0, 4))
    assert len(result.rows) == 2


def test_a5_small():
    from repro.harness import a5_sync_rich_workloads
    result = a5_sync_rich_workloads(n_cores=2)
    assert len(result.rows) == 2


def test_compare_configs_forwards_check():
    from repro.harness import compare_configs
    from repro.isa.program import Assembler
    from repro.workloads.base import Workload
    from tests.conftest import small_config

    def always_fails(result):
        raise AssertionError("validation ran")

    asm = Assembler("t0")
    asm.li(1, 0x1_0000).store(1, base=1, offset=0)
    asm.halt()
    workload = Workload("check-probe", [asm.build()], {},
                        validate=always_fails)
    configs = {"only": small_config(1)}

    with pytest.raises(AssertionError, match="validation ran"):
        compare_configs(workload, configs)  # check defaults to True
    results = compare_configs(workload, configs, check=False)
    assert results["only"].cycles > 0
