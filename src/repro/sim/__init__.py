"""Discrete-event simulation substrate.

This subpackage provides the machinery every other subsystem is built on:

* :mod:`repro.sim.engine` -- a deterministic discrete-event simulator
  (event queue, simulated clock, scheduling primitives).
* :mod:`repro.sim.stats` -- counters, accumulators and histograms with a
  hierarchical registry, used for all measurements reported by the
  benchmark harness.
* :mod:`repro.sim.config` -- validated dataclass configuration for every
  hardware structure in the simulated system.
"""

from repro.sim.engine import Simulator
from repro.sim.stats import Accumulator, Counter, Histogram, StatsRegistry
from repro.sim.config import (
    CacheConfig,
    ConsistencyModel,
    CoreConfig,
    InterconnectConfig,
    MemoryConfig,
    SpeculationConfig,
    SpeculationMode,
    SystemConfig,
)

__all__ = [
    "Simulator",
    "Accumulator",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "CacheConfig",
    "ConsistencyModel",
    "CoreConfig",
    "InterconnectConfig",
    "MemoryConfig",
    "SpeculationConfig",
    "SpeculationMode",
    "SystemConfig",
]
