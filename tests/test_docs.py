"""The docs name only files and code that exist, and quote artifacts
exactly.

Every ``examples/``, ``docs/``, ``tests/``, ``benchmarks/`` and
``src/repro/`` path named in the top-level docs, ``docs/*.md`` and the
verification recipe must exist in the checkout, so deleting or renaming
a file fails tier-1 until the docs that point at it are updated.  So
must every ``BENCH_<n>.json`` they name, and every figure they quote
from one must read exactly as formatted from the artifact.  Every
backquoted ``repro.`` dotted name they give must resolve to a module or
an attribute, unless it is listed in :data:`WITHDRAWN` as history.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]

DOCS = sorted([_ROOT / "README.md", _ROOT / "DESIGN.md",
               _ROOT / "EXPERIMENTS.md",
               _ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
               *(_ROOT / "docs").glob("*.md")])

#: A repo path in one of the checked trees, not preceded by a path
#: character (so ``perfbench/tests/...`` is not read as ``tests/...``).
_PATH = re.compile(
    r"(?<![\w./-])(?:examples|docs|tests|benchmarks|src/repro)/[\w./-]*")


def named_paths(text: str):
    return sorted({match.rstrip(".") for match in _PATH.findall(text)})


def test_path_pattern():
    text = ("see `examples/run_experiments.py`, docs/ROBUSTNESS.md. "
            "and tests/ but not perfbench/tests/test_perfbench.py")
    assert named_paths(text) == ["docs/ROBUSTNESS.md",
                                 "examples/run_experiments.py", "tests/"]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(_ROOT)))
def test_doc_names_only_existing_paths(doc):
    missing = [path for path in named_paths(doc.read_text())
               if not (_ROOT / path).exists()]
    assert not missing, f"{doc.relative_to(_ROOT)} names missing {missing}"


#: A backquoted dotted name in the package, e.g. ``repro.cpu.core``.
_CODE_NAME = re.compile(r"`(repro(?:\.\w+)+)`")

#: Names the docs keep as history of deleted code, each with the change
#: that deleted it.
WITHDRAWN = {
    "repro.sim.sharded": "the sharded engine's deletion",
    "repro.cpu.core._make_fused_span":
        "the uncompiled superblock executor's deletion",
    "repro.harness.bench": "the grid-timing bench harness's deletion",
    "repro.harness.parallel.ResilientPointRunner":
        "the sweep timeout, retry and exclusion policy's deletion",
}


def named_code(text: str):
    return sorted(set(_CODE_NAME.findall(text)))


def resolves(name: str) -> bool:
    """Is ``name`` a module, or an attribute path from the longest
    importable module prefix of it?"""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


def test_code_name_resolution():
    assert named_code("`repro.isa` and `repro.faults.Watchdog(system)`, "
                      "`repro.cpu.core._decode_plan`.") == [
        "repro.cpu.core._decode_plan", "repro.isa"]
    assert resolves("repro.isa.interpreter.superblock_spans")
    assert resolves("repro.faults.Watchdog")
    assert not resolves("repro.core.modes")
    assert not resolves("repro.isa.interpreter.no_such_name")


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(_ROOT)))
def test_doc_names_only_existing_code(doc):
    missing = [name for name in named_code(doc.read_text())
               if name not in WITHDRAWN and not resolves(name)]
    assert not missing, f"{doc.relative_to(_ROOT)} names missing {missing}"


@pytest.mark.parametrize("name", sorted(WITHDRAWN))
def test_withdrawn_names_are_gone_and_still_named(name):
    assert not resolves(name), f"{name} exists again: drop it from WITHDRAWN"
    assert any(name in named_code(doc.read_text()) for doc in DOCS), (
        f"no doc names {name} any more: drop it from WITHDRAWN")


#: An example script, and a long flag on the line after it.
_SCRIPT = re.compile(r"examples/(\w+)\.py")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def named_flags(text: str):
    """(script, flag) for every ``--flag`` that follows
    ``examples/<script>.py`` on the same line, before any other script."""
    found = set()
    for line in text.splitlines():
        parts = _SCRIPT.split(line)
        for script, rest in zip(parts[1::2], parts[2::2]):
            found.update((script, flag) for flag in _FLAG.findall(rest))
    return sorted(found)


def test_flag_pattern():
    text = ("`python examples/run_fuzz.py --programs 5 --seed=3` and "
            "examples/run_bench.py --profile 25\n--quick on a new line")
    assert named_flags(text) == [("run_bench", "--profile"),
                                 ("run_fuzz", "--programs"),
                                 ("run_fuzz", "--seed")]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(_ROOT)))
def test_doc_names_only_existing_flags(doc):
    """A flag a doc gives a script appears quoted in that script."""
    missing = []
    for script, flag in named_flags(doc.read_text()):
        path = _ROOT / "examples" / f"{script}.py"
        if path.exists() and not re.search(
                rf"[\"']{re.escape(flag)}[\"']", path.read_text()):
            missing.append(f"examples/{script}.py {flag}")
    assert not missing, f"{doc.relative_to(_ROOT)} names missing {missing}"


_BENCH = re.compile(r"\bBENCH_(\d+)")


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(_ROOT)))
def test_doc_names_only_existing_bench_artifacts(doc):
    missing = sorted({f"BENCH_{n}.json" for n in _BENCH.findall(doc.read_text())
                      if not (_ROOT / f"BENCH_{n}.json").exists()})
    assert not missing, f"{doc.relative_to(_ROOT)} names missing {missing}"


#: (doc, artifact, JSON path, format): the doc must contain the value at
#: the path, formatted.  A path step ``[x]`` picks the list element whose
#: ``label`` is ``x``.
QUOTED = [
    ("docs/PERF.md", "BENCH_3.json", "grids.E1.totals.events_per_sec", "{:,.0f}"),
    ("docs/PERF.md", "BENCH_3.json", "grids.E9.totals.events_per_sec", "{:,.0f}"),
    ("docs/PERF.md", "BENCH_3.json", "grids.MEM.totals.events_per_sec", "{:,.0f}"),
    ("docs/PERF.md", "BENCH_4.json", "grids.E1.totals.events_per_sec", "{:,.0f}"),
    ("docs/PERF.md", "BENCH_4.json", "grids.E9.totals.events_per_sec", "{:,.0f}"),
    ("docs/PERF.md", "BENCH_4.json", "grids.MEM.totals.events_per_sec", "{:,.0f}"),
    ("docs/PERF.md", "BENCH_4.json", "speedup.E1.events_per_sec", "{:.2f}x"),
    ("docs/PERF.md", "BENCH_4.json", "speedup.E9.events_per_sec", "{:.2f}x"),
    ("docs/PERF.md", "BENCH_4.json", "speedup.MEM.events_per_sec", "{:.2f}x"),
    ("EXPERIMENTS.md", "BENCH_5.json",
     "sharded.points.[mesh256-stencil].serial_wall_seconds", "serial {:.2f} s"),
    ("EXPERIMENTS.md", "BENCH_5.json",
     "sharded.points.[mesh256-stencil].sharded_wall_seconds",
     "measured wall {:.2f} s"),
    ("EXPERIMENTS.md", "BENCH_5.json",
     "sharded.points.[mesh256-stencil].wall_speedup", "({:.2f}x)"),
    ("EXPERIMENTS.md", "BENCH_5.json",
     "sharded.points.[mesh256-stencil].max_shard_busy_seconds",
     "max shard busy {:.2f} s"),
    ("EXPERIMENTS.md", "BENCH_5.json",
     "sharded.points.[mesh256-stencil].critical_path_speedup",
     "{:.2f}x critical path"),
] + [
    ("docs/PERF.md", artifact,
     f"workloads.{workload}.end_to_end.{metric}.{side}_median", fmt)
    for artifact in ("BENCH_6.json", "BENCH_7.json", "BENCH_8.json")
    for workload in ("paper-tables", "mesh-contention", "verify-campaign")
    for metric, fmt in (("wall_s", "{:.3f}"), ("cpu_s", "{:.3f}"),
                        ("setup_s", "{:.3f}"), ("sim_instr_per_s", "{:,.0f}"),
                        ("peak_rss_mb", "{:.2f}"))
    for side in ("parent", "change")
]


def artifact_value(doc, path):
    for step in path.split("."):
        if step.startswith("["):
            doc = next(item for item in doc if item["label"] == step[1:-1])
        else:
            doc = doc[step]
    return doc


def _flat(text):
    """Markdown with emphasis and runs of whitespace collapsed."""
    return " ".join(text.replace("**", "").split())


@pytest.mark.parametrize("doc,artifact,path,fmt", QUOTED,
                         ids=[f"{d}:{a}:{p}" for d, a, p, _ in QUOTED])
def test_doc_quotes_artifact_exactly(doc, artifact, path, fmt):
    value = artifact_value(json.loads((_ROOT / artifact).read_text()), path)
    quoted = fmt.format(value)
    assert quoted in _flat((_ROOT / doc).read_text()), (
        f"{doc} should quote {artifact} {path} as {quoted!r}")
