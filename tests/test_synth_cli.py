"""Tier-1 smoke test for examples/run_synth.py --selftest.

The selftest is the CI gate for the fence-synthesis subsystem: it
synthesizes fence sets for every canonical litmus shape against both
stronger targets, asserts each recovers the known-minimal set
deterministically, and checks the cycle-cost story (StoreLoad fences
stall with speculation off; on-demand speculation recovers the loss).
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli():
    spec = importlib.util.spec_from_file_location(
        "run_synth", _ROOT / "examples" / "run_synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_passes(cli, capsys):
    assert cli.main(["--selftest"]) == 0
    out = capsys.readouterr().out
    assert "SELFTEST PASSED" in out
    assert "all known-minimal fence sets recovered" in out
    assert "FAIL" not in out


def test_single_workload_run(cli, capsys):
    assert cli.main(["--workload", "sb", "--target", "tso"]) == 0
    out = capsys.readouterr().out
    assert "0 fence(s)" in out


@pytest.mark.parametrize("argv", [
    ["--max-queries", "-5", "--workload", "sb", "--target", "sc"],
    ["--seed", "-1", "--workload", "sb", "--target", "sc"]],
    ids=["negative-budget", "negative-seed"])
def test_negative_budget_or_seed_is_a_usage_error(cli, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "must be at least 0" in err
