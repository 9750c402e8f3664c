"""The fuzz and fault-injection CLIs refuse out-of-range counts and
seeds as usage errors (exit 2), before anything is simulated: a count
below 1 used to run an empty sweep and pass, or die in a traceback."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _cli(script):
    spec = importlib.util.spec_from_file_location(
        script, _ROOT / "examples" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script,argv,message", [
    ("run_fuzz", ["--threads", "0", "--programs", "1"], "--threads"),
    ("run_fuzz", ["--programs", "-2"], "--programs"),
    ("run_fuzz", ["--programs", "0"], "--programs"),
    ("run_fuzz", ["--ops", "-1"], "--ops"),
    ("run_fuzz", ["--seed", "-1", "--programs", "1"], "--seed"),
    ("run_faults", ["--programs", "-1"], "--programs"),
    ("run_faults", ["--programs", "0"], "--programs"),
    ("run_faults", ["--seed", "-1"], "--seed"),
])
def test_out_of_range_arguments_are_usage_errors(script, argv, message,
                                                 capsys):
    with pytest.raises(SystemExit) as exit_info:
        _cli(script).main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument {message}: must be at least" in err.splitlines()[-1]
