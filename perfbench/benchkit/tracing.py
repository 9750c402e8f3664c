"""Spans and a statistical sampler for the traced run.

Nothing here runs in an end-to-end (``--trace 0``) measurement: that
run uses :data:`NO_TRACE`, whose spans are empty context managers.

* :class:`Tracer` records spans -- name, start, end, the span that
  caused it -- around the calls the benchmark makes into the program.
  Spans stay in memory and are written out when the run ends.
* :class:`Sampler` is an ``ITIMER_PROF`` sampler.  Each sample taken
  while a *sampled* span (one simulation point) is open is credited to
  the innermost frame that belongs to the package under test
  (``src/repro``; generated superblock code counts as
  ``repro.cpu.core``, which compiles it), and to the innermost *phase*
  frame on the stack (System construction, ``System.run``, the
  consistency checks).  ``ITIMER_PROF`` counts the process's CPU time,
  so samples stop while the process waits or the hypervisor steals.

Both time their own work (``seconds``): the sampler's signal handler
and the tracer's span bookkeeping.  That is the tracing overhead,
measured directly rather than as the difference between a traced and
an untraced pass, which on a shared host is mostly the host's drift.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional


class Sampler:
    """Profiling-timer sampler, credited only inside sampled spans."""

    def __init__(self, src_root: str, interval: float, phases: Dict):
        self.interval = interval
        self._src = os.path.join(os.path.realpath(src_root), "")
        self._module_cache: Dict[str, Optional[str]] = {}
        #: id(code object) -> phase name; the innermost match wins.
        self._phases = {id(code): name for code, name in phases.items()}
        self.in_point = False
        self.samples = 0
        #: host seconds spent in the signal handler
        self.seconds = 0.0
        self.modules: Counter = Counter()
        self.phases: Counter = Counter()
        self._previous = None
        self.running = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self.running = False

    def snapshot(self) -> Dict:
        return {"samples": self.samples, "seconds": self.seconds,
                "modules": dict(self.modules), "phases": dict(self.phases)}

    def _module_of(self, filename: str) -> Optional[str]:
        module = self._module_cache.get(filename, False)
        if module is False:
            module = None
            if filename.startswith("<superblock"):
                module = "repro.cpu.core"
            else:
                path = os.path.realpath(filename)
                if path.startswith(self._src) and path.endswith(".py"):
                    module = path[len(self._src):-3].replace(os.sep, ".")
                    if module.endswith(".__init__"):
                        module = module[:-len(".__init__")]
            self._module_cache[filename] = module
        return module

    def _on_sample(self, signum, frame) -> None:
        started = time.perf_counter()
        if self.in_point:
            self._credit(frame)
        self.seconds += time.perf_counter() - started

    def _credit(self, frame) -> None:
        self.samples += 1
        module = phase = None
        phases = self._phases
        while frame is not None and (module is None or phase is None):
            code = frame.f_code
            if module is None:
                module = self._module_of(code.co_filename)
            if phase is None:
                phase = phases.get(id(code))
            frame = frame.f_back
        self.modules[module or "other"] += 1
        self.phases[phase or "other"] += 1


def sample_delta(after: Dict, before: Dict) -> Dict:
    """The samples taken between two :meth:`Sampler.snapshot` calls."""
    return {
        "samples": after["samples"] - before["samples"],
        "seconds": after["seconds"] - before["seconds"],
        "modules": {k: v - before["modules"].get(k, 0)
                    for k, v in after["modules"].items()},
        "phases": {k: v - before["phases"].get(k, 0)
                   for k, v in after["phases"].items()},
    }


def merge_samples(into: Dict, snapshot: Dict) -> None:
    """Add one snapshot's (or delta's) samples into ``into``."""
    for total in ("samples", "seconds"):
        into[total] = into.get(total, 0) + snapshot[total]
    for kind in ("modules", "phases"):
        bucket = into.setdefault(kind, {})
        for name, count in snapshot[kind].items():
            bucket[name] = bucket.get(name, 0) + count


class Tracer:
    """In-memory span recorder; sampled spans open the sampler's gate."""

    traced = True

    def __init__(self, sampler: Optional[Sampler] = None):
        self.sampler = sampler
        #: [name, start, end, parent index or None, pid]
        self.spans: List[list] = []
        self._open: List[int] = []
        #: host seconds spent opening and closing spans
        self.seconds = 0.0

    @contextmanager
    def span(self, name: str, sampled: bool = False):
        """Record one span; yields its index, the parent of spans adopted
        from pool workers."""
        entered = time.perf_counter()
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None, os.getpid()]
        self.spans.append(record)
        self._open.append(index)
        gate = sampled and self.sampler is not None
        if gate:
            self.sampler.in_point = True
        self.seconds += time.perf_counter() - entered
        try:
            yield index
        finally:
            exited = time.perf_counter()
            if gate:
                self.sampler.in_point = False
            self._open.pop()
            record[2] = exited
            self.seconds += time.perf_counter() - exited

    def adopt(self, spans: List[list], parent: Optional[int]) -> None:
        """Append spans recorded in another process under ``parent``."""
        offset = len(self.spans)
        for name, start, end, local_parent, pid in spans:
            self.spans.append([name, start, end,
                               parent if local_parent is None
                               else local_parent + offset, pid])

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def to_json(self) -> List[Dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "pid": pid}
                for i, (n, s, e, p, pid) in enumerate(self.spans)]


class NoTrace:
    """The tracer of an end-to-end run: every span is a no-op."""

    sampler = None
    traced = False

    def span(self, name: str, sampled: bool = False):
        return nullcontext()


NO_TRACE = NoTrace()
