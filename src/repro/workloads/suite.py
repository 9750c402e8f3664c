"""The standard workload suite used by the benchmark harness.

Mirrors the paper's commercial/scientific split:

========== ====================== ===================================
class      paper workload         our stand-in
========== ====================== ===================================
commercial apache / zeus          ``locks-tas`` (hot-lock server loop)
commercial oltp (db2/oracle)      ``locks-ticket``, ``locks-partitioned``
commercial store-miss behaviour   ``streaming-writer`` (log/output writes)
scientific ocean                  ``barrier-stencil``
scientific barnes                 ``barrier-reduction``
comm./sync --                     ``producer-consumer`` (fence-bound)
========== ====================== ===================================
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict, Tuple

from repro.workloads import barriers, locks, producer_consumer, streaming
from repro.workloads.base import Workload

#: The suite's workload names, in table order.  Experiment ``build``
#: phases iterate these without paying to assemble the programs.
SUITE_NAMES = (
    "locks-tas",
    "locks-ticket",
    "locks-partitioned",
    "streaming-writer",
    "barrier-stencil",
    "barrier-reduction",
    "producer-consumer",
)


#: Built suites kept by :func:`standard_suite`.  A full
#: ``run_experiments.py`` run plans four distinct ``(n_cores, scale)``
#: pairs, and ``--quick`` two more.
SUITE_MEMO_SIZE = 8


def standard_suite(n_cores: int, scale: float = 1.0) -> Dict[str, Workload]:
    """Build the benchmark suite for ``n_cores`` threads.

    ``scale`` multiplies the per-thread work (1.0 is the default used in
    EXPERIMENTS.md; tests use smaller scales for speed).

    Suites are memoized per process (an LRU of :data:`SUITE_MEMO_SIZE`
    entries keyed by ``(n_cores, scale)``): every call returns a new
    dict of new :class:`Workload` shells, each with its own
    ``programs`` list and ``initial_memory`` dict, but repeated calls
    share the same frozen :class:`~repro.isa.program.Program` objects
    and ``validate`` closures, and with them each program's derived
    data (see :meth:`~repro.isa.program.Program.derived`).
    """
    if n_cores < 2:
        raise ValueError("the suite needs at least 2 cores")
    if n_cores % 2 != 0:
        raise ValueError("producer-consumer pairs need an even core count")
    return {name: replace(workload, programs=list(workload.programs),
                          initial_memory=dict(workload.initial_memory))
            for name, workload in zip(SUITE_NAMES,
                                      _build_suite(n_cores, scale))}


@lru_cache(maxsize=SUITE_MEMO_SIZE)
def _build_suite(n_cores: int, scale: float) -> Tuple[Workload, ...]:
    def n(base: int) -> int:
        return max(2, int(base * scale))

    # Synchronisation-to-work ratios are calibrated so that speculation
    # windows (a store-buffer drain, ~10^2 cycles) are small relative to
    # the interval between conflicting synchronisation events, as they
    # are in the paper's full-size workloads (see DESIGN.md).  locks-tas
    # is deliberately left at maximal contention as the stress point.
    suite = {
        "locks-tas": locks.lock_contention(
            n_cores, increments=n(30), lock_kind="tas"),
        "locks-ticket": locks.lock_contention(
            n_cores, increments=n(30), lock_kind="ticket"),
        "locks-partitioned": locks.partitioned_locks(
            n_cores, increments=n(40), share_every=8, think_cycles=200),
        "streaming-writer": streaming.streaming_writer(
            n_cores, iterations=n(30)),
        "barrier-stencil": barriers.stencil(
            n_cores, phases=n(4), cells_per_thread=n(32), compute_cycles=8),
        "barrier-reduction": barriers.reduction(
            n_cores, rounds=n(4), local_work=n(16)),
        "producer-consumer": producer_consumer.pingpong(
            n_pairs=n_cores // 2, rounds=n(8), payload_words=8),
    }
    assert tuple(suite) == SUITE_NAMES
    return tuple(suite.values())


#: Workload classes for grouping in reports.
WORKLOAD_CLASS: Dict[str, str] = {
    "locks-tas": "commercial",
    "locks-ticket": "commercial",
    "locks-partitioned": "commercial",
    "streaming-writer": "commercial",
    "barrier-stencil": "scientific",
    "barrier-reduction": "scientific",
    "producer-consumer": "communication",
}
