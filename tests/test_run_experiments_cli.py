"""Smoke tests for examples/run_experiments.py (CLI + shared scheduler).

These keep the quick-scale CLI path under tier-1 coverage: flag
parsing, the cross-experiment scheduler, table building, CSV export,
the serial/parallel equivalence guarantee, and a repeated run served
from the ``--store`` result store.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.harness import ExperimentResult

_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", _ROOT / "examples" / "run_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tables_only(output: str) -> str:
    """CLI output with timing lines stripped (wall times vary)."""
    return "\n".join(
        line for line in output.splitlines()
        if not line.startswith("sweep:") and "s)" not in line)


def _sweep_line(output: str) -> str:
    return next(line for line in output.splitlines()
                if line.startswith("sweep:"))


def test_unknown_experiment_fails(cli, capsys):
    assert cli.main(["E99"]) == 1
    assert "unknown experiment" in capsys.readouterr().out


def test_bad_jobs_fails(cli, capsys):
    assert cli.main(["E10", "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().out


def test_e10_static_table(cli, capsys):
    assert cli.main(["E10"]) == 0
    out = capsys.readouterr().out
    assert "Simulated system parameters" in out
    assert "MESI" in out


def test_quick_e2_serial_and_parallel_match(cli, capsys):
    assert cli.main(["E2", "--quick", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(["E2", "--quick", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert "[E2] Normalised runtime" in serial
    assert _tables_only(serial) == _tables_only(parallel)


def test_quick_sweep_dedups_across_experiments(cli, capsys):
    # E3's continuous half is exactly E6's probe grid: the shared
    # scheduler must report the deduplication.
    assert cli.main(["E3", "E6", "--quick", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "(7 deduplicated" in out
    assert "[E3]" in out and "[E6]" in out


def test_quick_shrinks_the_ablations(cli, capsys, monkeypatch):
    calls = []

    def a1_stub(**kwargs):
        calls.append(kwargs)
        return ExperimentResult("A1", "stub", ["column"])

    ablations = cli.all_ablations()
    monkeypatch.setattr(cli, "all_ablations",
                        lambda: {**ablations, "A1": a1_stub})
    assert cli.main(["A1", "--quick"]) == 0
    assert "[A1] stub" in capsys.readouterr().out
    assert calls == [dict(n_cores=4, scale=0.3)]


def test_csv_export(cli, capsys, tmp_path):
    assert cli.main(["E10", "--csv", str(tmp_path)]) == 0
    assert (tmp_path / "e10.csv").exists()


def test_quick_e2_repeat_is_served_from_the_store(cli, capsys, tmp_path):
    store = str(tmp_path / "store")
    assert cli.main(["E2", "--quick", "--jobs", "2", "--store", store]) == 0
    first = capsys.readouterr().out
    assert cli.main(["E2", "--quick", "--jobs", "2", "--store", store]) == 0
    second = capsys.readouterr().out
    simulated = int(_sweep_line(first).split()[1])
    assert simulated > 0
    assert _sweep_line(second).startswith("sweep: 0 unique points")
    assert f", {simulated} from store" in _sweep_line(second)
    assert _tables_only(first) == _tables_only(second)


def test_store_that_is_not_a_directory_fails(cli, capsys, tmp_path):
    path = tmp_path / "a-file"
    path.write_text("")
    assert cli.main(["E10", "--store", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith(f"--store {path}: cannot open result store")


@pytest.mark.parametrize("flag", ["--csv", "--store"])
def test_flag_without_value_fails(cli, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(["E10", flag])
    assert info.value.code == f"{flag} needs an argument"
