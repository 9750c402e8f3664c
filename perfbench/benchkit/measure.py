"""The measurement loop: set up, run timed passes for the run's seconds,
check every output, and summarise.

A *pass* is one whole workload (for paper-tables, regenerating E1-E10).
Each pass sets up afresh and then runs its timed phase, whose medians
over passes the run reports.  The number of passes follows from the
run's seconds and the workload's nominal pass time, not from the clock,
so a slow stretch of the host changes the times measured but never how
many passes they are taken over.

An untraced run reports times in reference seconds (see
:mod:`benchkit.clock`) and takes ``setup_s`` from :data:`SETUP_SAMPLES`
fresh interpreters, each timing its own imports and set-up.  A traced
run takes no probes and reports the per-layer metrics, medians over
its traced passes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchkit.clock import Clock, SpeedProbe
from benchkit.host import steal_seconds
from benchkit.metrics import layer_metrics
from benchkit.tracing import NO_TRACE, Sampler, Tracer, sample_delta
from benchkit.workloads import PHASES, SAMPLE_INTERVAL, PassResult, src_root

#: Failure messages kept for the report (the count is always exact).
MAX_MESSAGES = 5

#: Fresh interpreters whose set-up times give the median ``setup_s``.
SETUP_SAMPLES = 5

MISSING = "operation missing from the pass"

TIME_SETUP = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "time_setup.py")


def peak_rss_mb() -> float:
    """Peak resident set of the largest process so far: this one or a
    reaped child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def setup_seconds(workload_name: str, seed: int, size: str) -> float:
    """Reference seconds one fresh interpreter takes to import the
    program and set the workload up (see ``perfbench/time_setup.py``)."""
    out = subprocess.run(
        [sys.executable, TIME_SETUP, workload_name, str(seed), size],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.splitlines()[-1]))


def digest(fingerprints: Dict[str, str]) -> str:
    """One hash over every operation's result fingerprint."""
    text = "\n".join(f"{key}={fp}" for key, fp in sorted(fingerprints.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def check_pass(result: PassResult, reference: Optional[Dict[str, str]],
               first: Optional[Dict[str, str]]) -> Dict[str, str]:
    """Every failed operation of one pass -> why.

    A raise or a failed check is already in ``result.errors``; a
    fingerprint that differs from the reference, or from this run's
    first pass, fails its operation too, as does a reference operation
    the pass never attempted."""
    errors = dict(result.errors)
    for key, fp in result.fingerprints.items():
        if reference is not None and reference.get(key) != fp:
            errors.setdefault(key, f"fingerprint {fp} differs from the "
                                   f"reference {reference.get(key)}")
        elif first is not None and first.get(key) != fp:
            errors.setdefault(key, f"fingerprint {fp} differs from the "
                                   "run's first pass")
    for key in reference or ():
        if key not in result.fingerprints and key not in errors:
            errors[key] = MISSING
    return errors


@dataclass
class RunReport:
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    messages: List[str] = field(default_factory=list)
    digest: str = ""
    steal_s: Optional[float] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    #: untraced runs: each pass's host and reference wall seconds
    walls: List[float] = field(default_factory=list)
    reference_walls: List[float] = field(default_factory=list)
    #: traced runs: each traced pass's spans and samples
    traces: List[Dict] = field(default_factory=list)


def pass_count(workload, seconds: float) -> int:
    """Whole passes that fit in ``seconds`` at the workload's nominal
    pass time, at least one."""
    return max(1, int(seconds / workload.pass_seconds))


def run(workload, seed: int, seconds: float, traced: bool,
        reference: Optional[Dict[str, str]] = None) -> RunReport:
    """Measure ``workload`` over :func:`pass_count` passes."""
    sampler = (Sampler(src_root(), SAMPLE_INTERVAL, PHASES)
               if traced and workload.in_process else None)
    speed = None if traced else SpeedProbe()
    report = RunReport()
    cpus: List[float] = []
    rates: List[float] = []
    layers: List[Dict[str, float]] = []
    first: Optional[Dict[str, str]] = None
    steal = 0.0
    if speed is not None:
        speed.start()
    try:
        for _ in range(pass_count(workload, seconds)):
            tracer = Tracer(sampler) if traced else NO_TRACE
            inputs = workload.setup(seed, tracer)
            clock = Clock(speed)
            clock.calibrate()
            steal_before = steal_seconds()
            if sampler is not None:
                before = sampler.snapshot()
                sampler.start()
                try:
                    result = workload.run_pass(inputs, clock, tracer)
                finally:
                    sampler.stop()
                result.samples = sample_delta(sampler.snapshot(), before)
            else:
                result = workload.run_pass(inputs, clock, tracer)
            clock.calibrate()
            if steal_before is not None:
                steal += steal_seconds() - steal_before
                report.steal_s = steal
            report.passes += 1

            errors = check_pass(result, reference, first)
            report.attempted += result.ops + sum(
                1 for why in errors.values() if why is MISSING)
            report.failed += len(errors)
            for key, why in errors.items():
                if len(report.messages) < MAX_MESSAGES:
                    report.messages.append(f"{key}: {why}")
            if first is None:
                first = result.fingerprints
                report.digest = digest(first)

            if traced:
                layers.append(layer_metrics(
                    tracer, result.samples, result.counts,
                    result.layer_inputs, SAMPLE_INTERVAL, clock.cpu))
                report.traces.append({"spans": tracer.to_json(),
                                      "samples": result.samples})
            else:
                wall, cpu = clock.reference()
                report.walls.append(clock.wall)
                report.reference_walls.append(wall)
                cpus.append(cpu)
                rates.append(result.instructions / wall if wall > 0 else 0.0)
            # Free this pass's points before the next pass sets up, so
            # that peak RSS is one pass's, however many passes run.
            del inputs, result
            gc.collect()
    finally:
        if speed is not None:
            speed.stop()

    if traced:
        report.metrics = {name: statistics.median(layer[name]
                                                  for layer in layers)
                          for name in layers[0]}
    else:
        # Read before the set-up interpreters run: they are children too.
        rss = peak_rss_mb()
        report.metrics = {
            "setup_s": statistics.median(
                setup_seconds(workload.name, seed, workload.size)
                for _ in range(SETUP_SAMPLES)),
            "wall_s": statistics.median(report.reference_walls),
            "cpu_s": statistics.median(cpus),
            "sim_instr_per_s": statistics.median(rates),
            "peak_rss_mb": rss,
        }
    return report
