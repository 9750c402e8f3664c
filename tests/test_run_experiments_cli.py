"""Smoke tests for examples/run_experiments.py (CLI + shared scheduler).

These keep the quick-scale CLI path under tier-1 coverage: flag
parsing, the cross-experiment scheduler, table building, CSV export,
the serial/parallel equivalence guarantee, the quick ablation tables
against their golden text, and a repeated run served from the
``--store`` result store.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib
import re
from typing import List

import pytest

from repro.harness import (
    Experiment,
    ExperimentResult,
    all_ablations,
    all_experiments,
)

_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", _ROOT / "examples" / "run_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TIMING = re.compile(r"  \([0-9.]+s\)")


def _tables_only(output: str) -> List[str]:
    """CLI output without its ``sweep:`` and ``(N.Ns)`` timing lines
    (wall times vary) or blank lines."""
    return [line for line in output.splitlines()
            if line and not line.startswith("sweep:")
            and not _TIMING.fullmatch(line)]


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

    def a1_stub_plan(**kwargs):
        calls.append(kwargs)
        return []

    def a1_stub_build(results, **kwargs):
        return ExperimentResult("A1", "stub", ["column"])

    ablations = cli.all_ablations()
    stub = Experiment("A1", a1_stub_plan, a1_stub_build)
    monkeypatch.setattr(cli, "all_ablations",
                        lambda: {**ablations, "A1": stub})
    assert cli.main(["A1", "--quick"]) == 0
    assert "[A1] stub" in capsys.readouterr().out
    assert calls == [dict(n_cores=4, scale=0.3)]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_quick_ablation_tables_match_their_golden(cli, capsys, jobs):
    # The golden holds the tables the ablations printed when they ran
    # outside the sweep: moving them into it must not change a digit.
    ablations = ["A1", "A2", "A3", "A4", "A5", "A6"]
    assert cli.main(ablations + ["--quick", "--jobs", jobs]) == 0
    golden = (_ROOT / "tests" / "golden_ablations_quick.txt").read_text()
    assert _tables_only(capsys.readouterr().out) == golden.splitlines()


def _keywords(function, skip=0):
    """A function's parameters after the first ``skip``, with defaults."""
    params = list(inspect.signature(function).parameters.values())[skip:]
    return [(p.name, p.kind, p.default) for p in params]


def test_every_table_plans_and_builds_alike_and_quick_fits_its_plan(cli):
    registry = {**all_experiments(), **all_ablations()}
    for exp_id, entry in registry.items():
        assert isinstance(entry, Experiment), exp_id
        assert entry.exp_id == exp_id
        # ``build`` takes the results first, then ``plan``'s keywords.
        assert _keywords(entry.build, skip=1) == _keywords(entry.plan), \
            exp_id
    for exp_id, kwargs in cli.QUICK_OVERRIDES.items():
        assert exp_id in registry, exp_id
        inspect.signature(registry[exp_id].plan).bind(**kwargs)


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


def test_csv_that_is_not_a_directory_fails_before_simulating(cli, capsys,
                                                              tmp_path,
                                                              monkeypatch):
    path = tmp_path / "a-file"
    path.write_text("")

    def no_sweep(*args, **kwargs):
        raise AssertionError("planned a sweep before checking --csv")

    monkeypatch.setattr(cli, "SweepScheduler", no_sweep)
    assert cli.main(["E1", "--quick", "--csv", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith(f"--csv {path}: cannot write CSVs there")
    assert path.read_text() == ""


def test_a_repeated_experiment_runs_once(cli, capsys):
    assert cli.main(["E8", "e8", "E10", "E10", "--quick", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("[E8]") == 1
    assert out.count("[E10]") == 1
    assert out.index("[E8]") < out.index("[E10]")


@pytest.mark.parametrize("flag", ["--csv", "--store"])
def test_flag_without_value_fails(cli, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(["E10", flag])
    assert info.value.code == f"{flag} needs an argument"
