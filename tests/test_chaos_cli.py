"""Tier-1 smoke test for examples/run_chaos.py --selftest.

The selftest is the CI gate for the chaos layer: it runs the E14 chaos
matrix (protocol workloads under node + link faults, every safety
property checked), proves replays are byte-identical, shows the
watchdog's deadlock dump naming a crash-stopped node, and exercises a
real pause-resume recovery.  That fusion changes nothing under chaos is
tier-1's own check (``tests/test_fastpath_determinism.py`` and
``tests/test_node_faults.py``).
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli():
    spec = importlib.util.spec_from_file_location(
        "run_chaos", _ROOT / "examples" / "run_chaos.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_passes(cli, capsys):
    assert cli.main(["--selftest"]) == 0
    out = capsys.readouterr().out
    assert "SELFTEST PASSED" in out
    assert "chaos layer deterministic, safe, diagnosable" in out
    assert "FAIL" not in out


def test_demo_failstop_names_dead_node(cli, capsys):
    assert cli.main(["--demo-failstop"]) == 0
    out = capsys.readouterr().out
    assert "CRASHED" in out
    assert "core 2" in out


@pytest.mark.parametrize("argv", [["--seeds"], ["--seeds", "-1"],
                                  ["--seeds", "0", "-2"], ["--seed", "-1"]],
                         ids=["no-seeds", "negative-seed", "one-negative",
                              "negative-selftest-seed"])
def test_bad_seeds_are_usage_errors(cli, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--seed" in err.splitlines()[-1]
