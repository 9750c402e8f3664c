"""The docs name only files that exist.

Every ``examples/``, ``docs/``, ``tests/``, ``benchmarks/`` and
``src/repro/`` path named in the top-level docs, ``docs/*.md`` and the
verification recipe must exist in the checkout, so deleting or renaming
a file fails tier-1 until the docs that point at it are updated.
"""

from __future__ import annotations

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
