"""The host record printed beside every run's metrics.

Host time on a shared virtual machine moves with the machine, not only
with the code, so each run names the machine it ran on: CPU count, CPU
model, Python version, the git commit of the code under test, and the
seconds the hypervisor stole from this guest while the timed phase ran
(from the ``steal`` column of ``/proc/stat``).  None of these is a
metric; they explain one.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Dict, Optional


def steal_seconds() -> Optional[float]:
    """Cumulative hypervisor steal time of the whole guest, in seconds.

    ``None`` where ``/proc/stat`` is unavailable (not Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    """HEAD of the checkout at ``root``, or ``unknown`` outside git.

    Git may not look above ``root``: a checkout that is not a
    repository must not report the commit of one that encloses it."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(root: str, steal_s: Optional[float]) -> Dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "steal_s": None if steal_s is None else round(steal_s, 2),
    }
