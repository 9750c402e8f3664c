"""Host times expressed at one reference host speed.

The benchmark runs on shared virtual machines whose CPUs run faster or
slower from one second to the next as neighbours load the machine: a
fixed pure-Python loop ran anywhere from 74 to 139 iterations a second
over five quiet minutes, and two sets of runs of the same code twenty
minutes apart differed by up to 38%.  No run length averages that out.

A *probe* times :func:`kernel`, a fixed pure-Python loop of dict, slot
and heap operations written for this benchmark.  It does not touch the
program under test, so no change to the program moves it.
:class:`SpeedProbe` takes a probe every :data:`PERIOD` seconds of wall
time from a ``SIGALRM`` timer, in the process whose work is timed, but
only while a :class:`Clock` region is open.  The clock takes the
probes' own time out of the regions they interrupt and converts what
is left to *reference seconds*: it multiplies by the mean of
``REFERENCE_S / probe`` over the probes, which gives the time the same
work would take on a host that runs a probe in ``REFERENCE_S``.  Wall
times use the probes' wall durations, CPU times their CPU durations.

Host speed swings within a second, so probes must come often: on a
recorded series of fuzz cases, probing every 0.25 s cut the spread of
9 s windows from 14% to 2.5%, while probing every 4 s left it at 14%.
"""

from __future__ import annotations

import heapq
import resource
import signal
import statistics
import time
from typing import List, Optional, Tuple


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0


def kernel(iterations: int) -> int:
    """The probe's fixed work: hashed dict lookups, slot updates and a
    bounded heap, the operations the simulator's hot loops are made of."""
    table = {}
    heap: List[Tuple[int, int]] = []
    total = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key)
        cell.value += i
        push(heap, (cell.value & 255, i))
        if len(heap) > 64:
            total += pop(heap)[1]
    return total


#: Iterations of one probe: 6-11 ms on the 2-CPU host the benchmark
#: was sized on, as the host's speed swings.
PROBE_ITERATIONS = 8000

#: Seconds one probe takes at the reference speed, a round figure in
#: that range.  It only sets the scale of reference seconds; any fixed
#: value compares commits alike.
REFERENCE_S = 0.010

#: Wall seconds between probes: a probe costs about a tenth of the time
#: it covers.
PERIOD = 0.1

#: ``(wall, cpu)`` seconds of one probe.
Probe = Tuple[float, float]


def probe() -> Probe:
    """Run the kernel once."""
    wall, cpu = time.perf_counter(), time.process_time()
    kernel(PROBE_ITERATIONS)
    return time.perf_counter() - wall, time.process_time() - cpu


class SpeedProbe:
    """Periodic probes of one process, taken only while ``active``."""

    def __init__(self):
        self.active = False
        #: every probe taken, in order
        self.probes: List[Probe] = []
        self._previous = None
        self.running = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self.probes.append(probe())


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children (the
    sweep's pool workers are reaped before ``SweepScheduler.run``
    returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Wall and CPU seconds summed over the regions it encloses, less
    the probes taken inside them, and every probe that covered them.

    With no :class:`SpeedProbe` the clock takes no probes and its
    reference seconds are its host seconds."""

    def __init__(self, speed: Optional[SpeedProbe] = None):
        self.speed = speed
        self.wall = 0.0
        self.cpu = 0.0
        self.probes: List[Probe] = []
        self._local = True

    def calibrate(self) -> None:
        """Take one probe outside any region, so that even a region too
        short for the timer has probes beside it."""
        if self.speed is not None:
            self.probes.append(probe())

    def remote(self) -> "Clock":
        """The next region's work runs in other processes, which probe
        themselves (see :meth:`add_remote`); this one does not."""
        self._local = False
        return self

    def __enter__(self) -> "Clock":
        self._since = len(self.speed.probes) if self.speed else 0
        if self.speed is not None and self._local:
            self.speed.active = True
        self._wall = time.perf_counter()
        self._cpu = cpu_seconds()
        return self

    def __exit__(self, *exc) -> bool:
        wall = time.perf_counter() - self._wall
        cpu = cpu_seconds() - self._cpu
        self._local = True
        if self.speed is not None:
            self.speed.active = False
            taken = self.speed.probes[self._since:]
            self.probes.extend(taken)
            wall -= sum(w for w, _ in taken)
            cpu -= sum(c for _, c in taken)
        self.wall += wall
        self.cpu += cpu
        return False

    def add_remote(self, probes: List[Probe], jobs: int) -> None:
        """Probes that ``jobs`` pool workers took inside a remote region
        that has closed: their time comes out of it."""
        self.probes.extend(probes)
        self.wall -= sum(w for w, _ in probes) / jobs
        self.cpu -= sum(c for _, c in probes)

    def factors(self) -> Tuple[float, float]:
        """``(wall, cpu)``: reference seconds per host second."""
        if not self.probes:
            return 1.0, 1.0
        return (statistics.fmean(REFERENCE_S / w for w, _ in self.probes),
                statistics.fmean(REFERENCE_S / max(c, 1e-6)
                                 for _, c in self.probes))

    def reference(self) -> Tuple[float, float]:
        """Wall and CPU seconds of the regions at the reference speed."""
        wall_factor, cpu_factor = self.factors()
        return self.wall * wall_factor, self.cpu * cpu_factor
