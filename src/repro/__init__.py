"""InvisiFence reproduction: performance-transparent memory ordering.

A from-scratch multiprocessor simulator (in-order cores, MESI directory
coherence, crossbar interconnect) plus an implementation of InvisiFence
(Blundell, Martin, Wenisch -- ISCA 2009): post-retirement speculation
that hides the cost of memory fences, atomics, and strong consistency
models, with speculative state tracked at cache-block granularity.

Quick start::

    from repro import SystemConfig, ConsistencyModel, SpeculationMode, run_system
    from repro.workloads import locks

    config = SystemConfig(n_cores=4).with_consistency(ConsistencyModel.TSO)
    workload = locks.lock_contention(n_threads=4, increments=50)
    result = run_system(config, workload.programs, workload.initial_memory)
    print(result.cycles)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables/figures.
"""

from repro.sim.config import (
    CacheConfig,
    ConsistencyModel,
    CoreConfig,
    InterconnectConfig,
    MemoryConfig,
    RollbackStrategy,
    SpeculationConfig,
    SpeculationMode,
    SystemConfig,
    ViolationGranularity,
)
from repro.isa import Assembler, FenceKind, Program
from repro.faults import DeadlockError, FaultPlan, LivelockError, Watchdog
from repro.system import System, SystemResult, run_system
from repro.cpu.core import StallCause
from repro.core import (
    InvisiFenceController,
    StorageModel,
    ViolationReason,
    invisifence_storage_bits,
    per_store_storage_bits,
)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "ConsistencyModel",
    "CoreConfig",
    "InterconnectConfig",
    "MemoryConfig",
    "RollbackStrategy",
    "SpeculationConfig",
    "SpeculationMode",
    "SystemConfig",
    "ViolationGranularity",
    "Assembler",
    "FenceKind",
    "Program",
    "DeadlockError",
    "FaultPlan",
    "LivelockError",
    "Watchdog",
    "System",
    "SystemResult",
    "run_system",
    "StallCause",
    "InvisiFenceController",
    "StorageModel",
    "ViolationReason",
    "invisifence_storage_bits",
    "per_store_storage_bits",
    "__version__",
]
