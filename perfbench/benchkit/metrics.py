"""The per-layer metrics of one traced pass.

``BENCHMARK.json`` declares every metric's name and unit; ``run.py``
checks that a run reports exactly the declared names.

Per-layer host seconds come from two sources:

* spans the benchmark records around its calls (``harness.*``,
  ``system.build``, ``system.run``);
* the sampler, whose module and phase shares are scaled by the wall
  time of the sampled spans (one per simulation point).  Where one
  program call builds, runs and checks a point -- ``simulate_point``
  in a paper-tables pool worker, ``execute_case`` on verify-campaign
  -- ``system.build_s``, ``system.run_s`` and ``verification.check_s``
  are the sampler's phase shares of that call's span.

Counts are read from each point's ``SystemResult`` and are exact.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from repro.cpu.core import StallCause

#: Per-layer self-time metric -> the src/repro modules it sums.
MODULE_SELF_TIME = {
    "sim.engine.self_s": ("repro.sim.engine",),
    "sim.stats.self_s": ("repro.sim.stats",),
    "cpu.core.self_s": ("repro.cpu.core",),
    "cpu.storebuffer.self_s": ("repro.cpu.storebuffer",),
    "core.invisifence.self_s": ("repro.core.invisifence",),
    "isa.self_s": ("repro.isa",),
    "coherence.l1.self_s": ("repro.coherence.l1",),
    "coherence.cache.self_s": ("repro.coherence.cache",),
    "coherence.directory.self_s": ("repro.coherence.directory",
                                   "repro.coherence.homemap"),
    "coherence.messages.self_s": ("repro.coherence.messages",),
    "interconnect.self_s": ("repro.interconnect",),
    "verification.self_s": ("repro.verification",),
    "faults.self_s": ("repro.faults",),
}

#: Sum -> statistics-registry names it adds up over every point.
_STAT_SUMS = {
    "episodes": r"spec\.\d+\.episodes",
    "commits": r"spec\.\d+\.commits",
    "wasted": r"spec\.\d+\.wasted_instructions",
    "l1_hits": r"l1\.\d+\.hits",
    "l1_misses": r"l1\.\d+\.misses",
    "dir_requests": r"dir\.requests",
    "dir_queued": r"dir\.requests_queued",
    "messages": r"(xbar|mesh)\.messages",
    "wait_cycles": r"xbar\.injection_queue_cycles|mesh\.link_wait_cycles",
    "injected": r"faults\.(dropped|duplicated|stalls|delayed)",
    "retries": r"l1\.\d+\.retries|dir\.retries",
}
_STAT_PATTERNS = [(key, re.compile(pattern))
                  for key, pattern in _STAT_SUMS.items()]

#: Spans around one program call that builds, runs and checks a point.
SPLIT_SPANS = ("harness.point", "verification.case")
#: The spans a sampler gate is open in: one simulation point each.
SAMPLED_SPANS = ("system.build", "system.run") + SPLIT_SPANS


class Counts:
    """Exact counts summed over every point a traced pass simulated."""

    def __init__(self):
        self._totals = dict.fromkeys(
            ("instructions", "fused", "events", "cycles", "ordering",
             "memory") + tuple(_STAT_SUMS), 0)
        #: statistic name -> the sum it belongs to (or None)
        self._keys: Dict[str, Optional[str]] = {}

    def _key(self, name: str) -> Optional[str]:
        if name not in self._keys:
            self._keys[name] = next(
                (k for k, p in _STAT_PATTERNS if p.fullmatch(name)), None)
        return self._keys[name]

    def add(self, result) -> None:
        totals = self._totals
        totals["instructions"] += result.total_instructions()
        totals["fused"] += result.fused_instructions()
        totals["events"] += result.events
        totals["cycles"] += result.cycles
        totals["ordering"] += result.ordering_stall_cycles()
        totals["memory"] += result.stall_cycles(StallCause.MEMORY)
        for name, value in result.stats.snapshot().items():
            key = self._key(name)
            if key is not None:
                totals[key] += value

    def values(self) -> Dict[str, float]:
        t = self._totals

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "sim.events": t["events"],
            "sim.cycles": t["cycles"],
            "sim.instructions": t["instructions"],
            "cpu.fusion_coverage": ratio(t["fused"], t["instructions"]),
            "cpu.ordering_stall_cycles": t["ordering"],
            "cpu.memory_stall_cycles": t["memory"],
            "spec.episodes": t["episodes"],
            "spec.commit_ratio": ratio(t["commits"], t["episodes"]),
            "spec.wasted_instructions": t["wasted"],
            "coherence.l1_hit_ratio": ratio(
                t["l1_hits"], t["l1_hits"] + t["l1_misses"]),
            "coherence.l1_misses": t["l1_misses"],
            "coherence.dir_requests": t["dir_requests"],
            "coherence.dir_queued_ratio": ratio(t["dir_queued"],
                                                t["dir_requests"]),
            "interconnect.messages": t["messages"],
            "interconnect.wait_cycles": t["wait_cycles"],
            "faults.injected": t["injected"],
            "faults.retries": t["retries"],
        }


def layer_metrics(tracer, samples: Dict, counts: Counts,
                  layer_inputs: Dict[str, float], interval: float,
                  cpu_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass whose timed phase took
    ``cpu_s`` CPU seconds, pool workers included."""
    point_s = sum(tracer.total(name) for name in SAMPLED_SPANS)
    split_s = sum(tracer.total(name) for name in SPLIT_SPANS)
    total = samples.get("samples", 0)
    modules = samples.get("modules", {})
    phases = samples.get("phases", {})
    tracing_s = tracer.seconds + samples.get("seconds", 0.0)

    def share(count: float) -> float:
        return count / total if total else 0.0

    metrics = {
        "harness.plan_s": tracer.total("harness.plan"),
        "harness.pool_overhead_s": layer_inputs.get("pool_overhead_s", 0.0),
        "harness.validate_s": tracer.total("harness.validate"),
        "harness.tables_s": tracer.total("harness.tables"),
        "harness.dedup_ratio": layer_inputs.get("dedup_ratio", 0.0),
        "system.build_s": (tracer.total("system.build")
                           + split_s * share(phases.get("build", 0))),
        "system.builds": (tracer.count("system.build")
                          + sum(tracer.count(name) for name in SPLIT_SPANS)),
        "system.run_s": (tracer.total("system.run")
                         + split_s * share(phases.get("run", 0))),
        "verification.check_s": split_s * share(phases.get("check", 0)),
        "trace.overhead_ratio": (tracing_s / (cpu_s - tracing_s)
                                 if cpu_s > tracing_s else 0.0),
        "trace.sample_coverage": (total * interval / point_s
                                  if point_s else 0.0),
    }
    for metric, prefixes in MODULE_SELF_TIME.items():
        count = sum(n for module, n in modules.items()
                    if any(module == p or module.startswith(p + ".")
                           for p in prefixes))
        metrics[metric] = point_s * share(count)
    metrics.update(counts.values())
    events = metrics["sim.events"]
    metrics["sim.host_ns_per_event"] = (
        metrics["system.run_s"] / events * 1e9 if events else 0.0)
    return metrics
