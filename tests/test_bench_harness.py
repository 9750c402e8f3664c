"""The benchmark driver, ``examples/run_bench.py``.

The driver is tested through a fake perfbench run function, with no
subprocess and no git: pair alternation, the gain and regression
verdicts, the fingerprint and host checks, the schema-2 validator and
the refusal of a revision without perfbench.  The ``--profile`` and
``--superblock-stats`` modes and argument handling run the CLI itself.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CLI = os.path.join(_REPO_ROOT, "examples", "run_bench.py")


def _load_driver():
    spec = importlib.util.spec_from_file_location("run_bench", _CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_driver()

SPEC = {
    "run_seconds": 20,
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "sim_instr_per_s", "unit": "instr/s", "better": "higher",
         "bound": 0.2},
    ],
    "per_layer": [{"name": "system.run_s", "unit": "s", "better": "lower"}],
}
HOST = {"nproc": 2, "cpu_model": "Test CPU", "python": "3.11.7"}


class FakePerfbench:
    """Answers ``run(side, workload, traced)`` from per-side series and
    records the order of its calls."""

    def __init__(self, wall=None, digest=None, failed=None, host=None):
        self.wall = wall or {"parent": [10.0] * 10, "change": [8.0] * 10}
        self.digest = digest or {}
        self.failed = failed or {}
        self.host = host or {}
        self.calls = []

    def __call__(self, side, workload, traced):
        index = sum(1 for c in self.calls if c[:3] == (side, workload, traced))
        self.calls.append((side, workload, traced))
        if traced:
            metrics = {"system.run_s": 1.0 + index}
        else:
            wall = self.wall[side][index]
            metrics = {"wall_s": wall, "sim_instr_per_s": 1e6 / wall}
        key = (side, workload, traced, index)
        return {"digest": self.digest.get(key, "d" * 16),
                "host": dict(self.host.get(key, HOST)), "steal_s": 0.1,
                "failed": self.failed.get(key, 0), "metrics": metrics}


def _document(fake):
    host, workloads = bench.measure(fake, SPEC, progress=lambda _: None)
    side = {"tier1": {"wall_s": 30.0, "exit_code": 0,
                      "summary": "1 passed in 30.00s"},
            "experiments_wall_s": {"jobs_1": 11.0, "jobs_2": 7.0}}
    return {"schema": bench.SCHEMA, "parent": "a" * 40, "change": "b" * 40,
            "host": host, "pairs": bench.PAIRS,
            "traced_runs": bench.TRACED_RUNS, "seed": bench.SEED,
            "seconds": SPEC["run_seconds"], "workloads": workloads,
            "sides": {"parent": side, "change": side}, "tables_match": True}


def test_pairs_alternate_which_side_runs_first():
    fake = FakePerfbench()
    _document(fake)
    for workload in ("alpha", "beta"):
        calls = [c for c in fake.calls if c[1] == workload]
        assert len(calls) == 2 * (bench.PAIRS + bench.TRACED_RUNS)
        firsts = [calls[2 * k][0] for k in range(len(calls) // 2)]
        assert firsts == ["parent" if k % 2 == 0 else "change"
                          for k in range(len(firsts))]
        assert [c[2] for c in calls] == \
            [False] * 2 * bench.PAIRS + [True] * 2 * bench.TRACED_RUNS
    # Workloads run one after another, in BENCHMARK.json's order.
    assert [c[1] for c in fake.calls] == \
        ["alpha"] * (len(fake.calls) // 2) + ["beta"] * (len(fake.calls) // 2)


def _verdict(parent, change, better="lower", bound=0.2, failed=(0, 0),
             match=True):
    return bench.verdict(parent, change, better, bound, failed[0], failed[1],
                         match)


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_ten_wins_with_a_wide_gap_is_a_gain():
    result = _verdict(PARENT, [p - 1.0 for p in PARENT])
    assert result["wins"] == 10
    assert result["gain"] and not result["regressed"]
    assert result["parent_median"] == 10.05
    assert result["change_median"] == pytest.approx(9.05)


def test_nine_wins_is_a_gain_and_eight_is_not():
    nine = [p - 1.0 for p in PARENT]
    nine[3] = PARENT[3] + 0.5
    assert _verdict(PARENT, nine)["wins"] == 9
    assert _verdict(PARENT, nine)["gain"]
    eight = list(nine)
    eight[5] = PARENT[5] + 0.5
    assert _verdict(PARENT, eight)["wins"] == 8
    assert not _verdict(PARENT, eight)["gain"]


def test_a_gap_inside_the_parents_quartiles_is_no_gain():
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    change = [p - (q3 - q1) / 2 for p in PARENT]
    result = _verdict(PARENT, change)
    assert result["wins"] == 10
    assert not result["gain"]


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] -= 1.0
    result = _verdict(PARENT, change)
    assert result["wins"] == 1
    assert _verdict(change, PARENT)["wins"] == 0


def test_a_metric_where_higher_is_better():
    faster = [p + 1.0 for p in PARENT]
    assert _verdict(PARENT, faster, better="higher")["gain"]
    assert _verdict(PARENT, faster, better="higher")["wins"] == 10
    assert not _verdict(PARENT, faster)["gain"]
    lower = [p * 0.7 for p in PARENT]
    assert _verdict(PARENT, lower, better="higher")["regressed"]


def test_a_regression_past_the_bound():
    within = [p * 1.19 for p in PARENT]
    assert not _verdict(PARENT, within)["regressed"]
    past = [p * 1.21 for p in PARENT]
    result = _verdict(PARENT, past)
    assert result["regressed"] and not result["gain"]
    assert result["wins"] == 0


def test_more_failed_operations_than_the_parent_is_no_gain():
    change = [p - 1.0 for p in PARENT]
    assert _verdict(PARENT, change, failed=(1, 1))["gain"]
    assert not _verdict(PARENT, change, failed=(0, 1))["gain"]


def test_document_records_runs_medians_and_verdicts():
    doc = _document(FakePerfbench())
    bench.validate_bench(doc)
    assert doc["host"] == HOST
    alpha = doc["workloads"]["alpha"]
    assert alpha["fingerprints_match"] is True
    assert alpha["parent"]["digests"] == ["d" * 16] * 13
    assert alpha["change"]["failed"] == [0] * 13
    assert alpha["change"]["steal_s"] == [0.1] * 13
    wall = alpha["end_to_end"]["wall_s"]
    assert wall["parent"] == [10.0] * 10 and wall["change"] == [8.0] * 10
    assert (wall["parent_median"], wall["change_median"]) == (10.0, 8.0)
    assert wall["wins"] == 10 and wall["bound"] == 0.2
    assert wall["gain"] is True and wall["regressed"] is False
    assert alpha["end_to_end"]["sim_instr_per_s"]["gain"] is True
    layer = alpha["per_layer"]["system.run_s"]
    assert layer["parent"] == [1.0, 2.0, 3.0]
    assert layer["parent_median"] == layer["change_median"] == 2.0


def test_a_digest_mismatch_voids_every_gain():
    fake = FakePerfbench(digest={("change", "beta", True, 2): "e" * 16})
    doc = _document(fake)
    bench.validate_bench(doc)
    assert doc["workloads"]["alpha"]["fingerprints_match"] is True
    beta = doc["workloads"]["beta"]
    assert beta["fingerprints_match"] is False
    assert not any(e["gain"] for e in beta["end_to_end"].values())
    beta["end_to_end"]["wall_s"]["gain"] = True
    with pytest.raises(bench.BenchError, match="gain over different digests"):
        bench.validate_bench(doc)


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.update(schema="repro-bench/1"), "unknown bench schema"),
    (lambda d: d.pop("host"), "missing key 'host'"),
    (lambda d: d["host"].update(steal_s=0.5), "host block"),
    (lambda d: d["workloads"]["alpha"].update(fingerprints_match=False),
     "fingerprints_match does not recompute"),
    (lambda d: d["workloads"]["alpha"]["end_to_end"]["wall_s"].update(wins=7),
     "wins does not recompute"),
    (lambda d: d["workloads"]["alpha"]["end_to_end"]["wall_s"]["change"]
     .__setitem__(0, 30.0), "does not recompute"),
    (lambda d: d["workloads"]["alpha"]["end_to_end"]["wall_s"]["parent"]
     .pop(), "not 10 pairs"),
    (lambda d: d["workloads"]["alpha"]["per_layer"]["system.run_s"]
     .update(change_median=0.5), "per-layer medians"),
], ids=["schema", "no-host", "host-keys", "fingerprints", "wins", "gain",
        "pairs", "layer"])
def test_validator_refuses_malformed_documents(mutate, match):
    doc = _document(FakePerfbench())
    mutate(doc)
    with pytest.raises(bench.BenchError, match=match):
        bench.validate_bench(doc)


def _fake_git(calls, missing=()):
    def git(*args):
        calls.append(args)
        if args[0] == "rev-parse":
            return args[-1].split("^")[0] * 4
        if args[0] == "cat-file" and args[-1].startswith(missing):
            raise bench.BenchError("no such path")
        return ""
    return git


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A fake checkout: its BENCHMARK.json, and git and the tier-1 and
    E1-E10 timing replaced by fakes."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    calls = []
    monkeypatch.setattr(bench, "git", _fake_git(calls, missing=("old1",)))
    monkeypatch.setattr(bench, "user_waits", lambda tree: (
        {"tier1": {"wall_s": 1.0, "exit_code": 0, "summary": "ok"},
         "experiments_wall_s": {"jobs_1": 2.0, "jobs_2": 1.5}}, {1: "t"}))
    return tmp_path, calls


def test_a_revision_without_perfbench_is_refused_before_any_worktree(repo):
    root, calls = repo
    with pytest.raises(bench.BenchError, match="old1 has no perfbench/run.py"):
        bench.compare("new1", "old1", directory=str(root))
    assert not any(c[0] == "worktree" for c in calls)
    assert not list(root.glob("BENCH_*.json"))


def _fake_perfbench(fake):
    return lambda tree, workload, traced, seconds: fake(
        os.path.basename(tree), workload, traced)


def test_compare_writes_the_next_bench_and_removes_its_worktrees(
        repo, monkeypatch):
    root, calls = repo
    (root / "BENCH_5.json").write_text("{}")
    monkeypatch.setattr(bench, "perfbench", _fake_perfbench(FakePerfbench()))
    path = bench.compare("par1", "chg1", directory=str(root),
                         progress=lambda _: None)
    assert path == str(root / "BENCH_6.json")
    doc = json.loads((root / "BENCH_6.json").read_text())
    bench.validate_bench(doc)
    assert (doc["parent"], doc["change"]) == ("par1" * 4, "chg1" * 4)
    added = [c[3] for c in calls if c[:2] == ("worktree", "add")]
    removed = [c[3] for c in calls if c[:2] == ("worktree", "remove")]
    assert len(added) == 2 and removed == added
    assert not any(os.path.exists(path) for path in added)


def test_a_host_disagreement_writes_nothing(repo, monkeypatch):
    root, calls = repo
    other = dict(HOST, cpu_model="Other CPU")
    fake = FakePerfbench(host={("change", "alpha", False, 4): other})
    monkeypatch.setattr(bench, "perfbench", _fake_perfbench(fake))
    with pytest.raises(bench.BenchError, match="disagree on the host"):
        bench.compare("par1", "chg1", directory=str(root),
                      progress=lambda _: None)
    assert not list(root.glob("BENCH_*.json"))
    assert any(c[:2] == ("worktree", "remove") for c in calls)


def test_parse_perfbench_reads_digest_host_and_metrics():
    stdout = "\n".join([
        "workload alpha seed 0 size full trace 0 passes 2 reference checked",
        "pass host wall_s 9.1 9.3 reference wall_s 6.4 6.5",
        "digest alpha 1d28e8f0aa",
        "host " + json.dumps(dict(HOST, git_commit="abc", steal_s=0.25)),
        json.dumps({"correct": True, "attempted": 9, "failed": 0,
                    "metrics": {"wall_s": {"value": 6.45, "unit": "s"}}}),
    ])
    assert bench.parse_perfbench(stdout) == {
        "digest": "1d28e8f0aa", "host": HOST, "steal_s": 0.25, "failed": 0,
        "metrics": {"wall_s": 6.45}}


def test_strip_timing_drops_sweep_and_timing_lines():
    text = "sweep: 9 unique points, wall 1.2s\n[E1] table\nrow | 1\n  (3.4s)\n"
    assert bench.strip_timing(text) == "[E1] table\nrow | 1"


def test_next_bench_path_increments(tmp_path):
    assert bench.next_bench_path(str(tmp_path)).endswith("BENCH_1.json")
    (tmp_path / "BENCH_3.json").write_text("{}")
    assert bench.next_bench_path(str(tmp_path)).endswith("BENCH_4.json")


def _cli(*args, timeout=120):
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    return subprocess.run([sys.executable, _CLI, *args], capture_output=True,
                          text=True, env=env, cwd=_REPO_ROOT, timeout=timeout)


def test_cli_superblock_stats_prints_coverage_table():
    """`run_bench.py --superblock-stats` prints the fusion coverage table
    of the quick grids."""
    proc = _cli("--superblock-stats")
    assert proc.returncode == 0, proc.stderr
    assert "coverage" in proc.stdout
    assert "mean-len" in proc.stdout
    assert "fused-instr" in proc.stdout
    assert "locks-tas|sc" in proc.stdout
    for grid in ("E1:", "E9:", "MEM:"):
        assert grid in proc.stdout


@pytest.mark.parametrize("argv", [
    ["--frobnicate"], ["--quick"], ["--check"], ["--repeats", "3"],
    ["HEAD", "--baseline", "BENCH_5.json"]])
def test_cli_rejects_unknown_arguments(argv):
    proc = _cli(*argv, timeout=60)
    assert proc.returncode == 1
    assert "unknown argument" in proc.stdout


@pytest.mark.parametrize("argv", [[], ["HEAD"], ["HEAD", "HEAD", "HEAD"]])
def test_cli_needs_two_revisions(argv):
    proc = _cli(*argv, timeout=60)
    assert proc.returncode == 1
    assert "usage: run_bench.py PARENT CHANGE" in proc.stdout


def test_cli_profile_prints_hotspots():
    """`run_bench.py --profile N` profiles one point, top-N by tottime."""
    proc = _cli("--profile", "5")
    assert proc.returncode == 0, proc.stderr
    assert "profiling" in proc.stdout
    assert "tottime" in proc.stdout


def test_cli_profile_rejects_bad_values():
    for bad in ("zero", "0"):
        proc = _cli("--profile", bad, timeout=60)
        assert proc.returncode == 1
        assert "--profile" in proc.stdout
