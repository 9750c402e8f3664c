"""Validated configuration for every structure in the simulated machine.

The defaults follow the paper-era system (InvisiFence, ISCA 2009,
Table-2-style parameters) scaled to what a Python event-driven simulator
can run in reasonable time: private split L1s (we model the D-side),
an inclusive shared L2 that also hosts the coherence directory, an
invalidation-based MESI protocol, and a crossbar interconnect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class ConsistencyModel(enum.Enum):
    """The memory consistency model enforced at each core.

    * ``SC``  -- sequential consistency: program order among all memory
      operations; a store must be globally visible before the next memory
      operation issues.
    * ``TSO`` -- total store order (SPARC TSO / x86-like): stores retire
      into a FIFO store buffer and loads may bypass it; only atomics and
      StoreLoad fences drain the buffer.
    * ``RMO`` -- relaxed memory order: loads and stores are unordered
      except across explicit fences (and atomics).
    """

    SC = "sc"
    TSO = "tso"
    RMO = "rmo"


class SpeculationMode(enum.Enum):
    """InvisiFence operating mode.

    * ``NONE`` -- speculation disabled (the conventional baseline).
    * ``ON_DEMAND`` -- enter speculation only when an ordering constraint
      would otherwise stall the core (minimises rollback exposure).
    * ``CONTINUOUS`` -- always speculating, checkpoint-to-checkpoint,
      decoupling consistency enforcement from the core entirely.
    """

    NONE = "none"
    ON_DEMAND = "on-demand"
    CONTINUOUS = "continuous"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int = 64 * 1024
    assoc: int = 4
    block_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        _require(_is_pow2(self.block_bytes), f"block_bytes must be a power of two, got {self.block_bytes}")
        _require(self.size_bytes % (self.block_bytes * self.assoc) == 0,
                 "size_bytes must be divisible by block_bytes * assoc")
        _require(self.assoc >= 1, "assoc must be >= 1")
        _require(self.hit_latency >= 1, "hit_latency must be >= 1")
        _require(_is_pow2(self.n_sets), f"number of sets must be a power of two, got {self.n_sets}")

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        return self.n_blocks // self.assoc

    @property
    def offset_bits(self) -> int:
        return self.block_bytes.bit_length() - 1

    def block_of(self, addr: int) -> int:
        """Block-aligned address containing ``addr``."""
        return addr & ~(self.block_bytes - 1)

    def set_index(self, addr: int) -> int:
        return (addr >> self.offset_bits) & (self.n_sets - 1)


@dataclass(frozen=True)
class MemoryConfig:
    """Shared L2 / directory / DRAM timing."""

    l2_hit_latency: int = 12
    dram_latency: int = 120
    directory_latency: int = 4

    def __post_init__(self) -> None:
        _require(self.l2_hit_latency >= 1, "l2_hit_latency must be >= 1")
        _require(self.dram_latency >= 1, "dram_latency must be >= 1")
        _require(self.directory_latency >= 0, "directory_latency must be >= 0")


class Topology(enum.Enum):
    """Interconnect topology."""

    CROSSBAR = "crossbar"
    MESH = "mesh"


@dataclass(frozen=True)
class InterconnectConfig:
    """Interconnect topology and timing.

    The crossbar uses ``link_latency`` end-to-end; the 2D mesh pays
    ``mesh_hop_latency`` per hop with XY routing and per-link
    serialisation (congestion around the directory tile is modelled).
    """

    topology: Topology = Topology.CROSSBAR
    link_latency: int = 5
    port_issue_interval: int = 1
    mesh_hop_latency: int = 2

    def __post_init__(self) -> None:
        _require(self.link_latency >= 0, "link_latency must be >= 0")
        _require(self.port_issue_interval >= 1, "port_issue_interval must be >= 1")
        _require(self.mesh_hop_latency >= 1, "mesh_hop_latency must be >= 1")


@dataclass(frozen=True)
class CoreConfig:
    """Per-core pipeline and LSU parameters."""

    consistency: ConsistencyModel = ConsistencyModel.TSO
    store_buffer_entries: int = 8
    store_buffer_coalescing: bool = False
    alu_latency: int = 1
    atomic_latency: int = 1
    # Exclusive prefetching: while the head store drains, acquire write
    # permission for up to this many queued stores (0 disables).  The
    # writes still *apply* strictly in FIFO order, so TSO is preserved;
    # this is how real write buffers overlap store misses.
    store_prefetch_depth: int = 4

    def __post_init__(self) -> None:
        _require(self.store_buffer_entries >= 1, "store_buffer_entries must be >= 1")
        _require(self.alu_latency >= 1, "alu_latency must be >= 1")
        _require(self.atomic_latency >= 1, "atomic_latency must be >= 1")
        _require(self.store_prefetch_depth >= 0, "store_prefetch_depth must be >= 0")


class ViolationGranularity(enum.Enum):
    """Granularity at which incoming coherence traffic aborts speculation.

    ``BLOCK`` is the hardware-faithful choice (SR/SW bits per L1 block);
    ``WORD`` is the idealised ablation that ignores false sharing.
    """

    BLOCK = "block"
    WORD = "word"


class RollbackStrategy(enum.Enum):
    """How speculatively written data is discarded on rollback.

    ``CLEAN_BEFORE_WRITE`` (the paper's design) writes a dirty block back
    to L2 before its first speculative write, so rollback just
    invalidates SW blocks.  ``VICTIM_BUFFER`` keeps the pre-speculation
    copy in a small victim buffer and restores from it (an ablation).
    """

    CLEAN_BEFORE_WRITE = "clean-before-write"
    VICTIM_BUFFER = "victim-buffer"


@dataclass(frozen=True)
class SpeculationConfig:
    """InvisiFence mechanism parameters."""

    mode: SpeculationMode = SpeculationMode.NONE
    rollback_penalty: int = 8
    commit_latency: int = 1
    conservative_window: int = 32
    max_rollbacks_before_stall: int = 2
    granularity: ViolationGranularity = ViolationGranularity.BLOCK
    rollback_strategy: RollbackStrategy = RollbackStrategy.CLEAN_BEFORE_WRITE
    victim_buffer_entries: int = 16
    continuous_commit_interval: int = 64
    # Chunk-based prior-design baseline (E7): commits serialise through a
    # global arbiter instead of completing locally.
    commit_arbitration: bool = False
    arbitration_latency: int = 24

    def __post_init__(self) -> None:
        _require(self.rollback_penalty >= 0, "rollback_penalty must be >= 0")
        _require(self.commit_latency >= 0, "commit_latency must be >= 0")
        _require(self.conservative_window >= 0, "conservative_window must be >= 0")
        _require(self.max_rollbacks_before_stall >= 1,
                 "max_rollbacks_before_stall must be >= 1")
        _require(self.victim_buffer_entries >= 1, "victim_buffer_entries must be >= 1")
        _require(self.continuous_commit_interval >= 1,
                 "continuous_commit_interval must be >= 1")
        _require(self.arbitration_latency >= 1, "arbitration_latency must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.mode is not SpeculationMode.NONE


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration wiring the whole machine together."""

    n_cores: int = 8
    l1: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)
    seed: int = 1
    # Number of directory home nodes.  1 keeps the historical single
    # directory at node id n_cores; H > 1 spreads directory state over
    # nodes n_cores..n_cores+H-1 via the consistent-hash home map
    # (repro.coherence.homemap), so the directory is not a single
    # serialisation point on large machines.
    n_homes: int = 1

    def __post_init__(self) -> None:
        _require(self.n_cores >= 1, "n_cores must be >= 1")
        _require(self.n_homes >= 1, "n_homes must be >= 1")

    def with_consistency(self, model: ConsistencyModel) -> "SystemConfig":
        """A copy of this config running the given consistency model."""
        return replace(self, core=replace(self.core, consistency=model))

    def with_speculation(self, mode: SpeculationMode, **kwargs) -> "SystemConfig":
        """A copy of this config with InvisiFence in the given mode."""
        return replace(self, speculation=replace(self.speculation, mode=mode, **kwargs))

    def with_cores(self, n_cores: int) -> "SystemConfig":
        return replace(self, n_cores=n_cores)

    def with_homes(self, n_homes: int) -> "SystemConfig":
        """A copy of this config with ``n_homes`` directory home nodes."""
        return replace(self, n_homes=n_homes)

    def describe(self) -> str:
        """A one-line summary used in reports and benchmark labels."""
        spec = self.speculation.mode.value
        return (
            f"{self.n_cores} cores, {self.core.consistency.value.upper()}, "
            f"SB={self.core.store_buffer_entries}, "
            f"L1={self.l1.size_bytes // 1024}KB/{self.l1.assoc}way/{self.l1.block_bytes}B, "
            f"spec={spec}"
        )


def paper_table2_config() -> SystemConfig:
    """The default system, mirroring the paper's Table-2-style parameters.

    16 in-order cores is the paper's scale; we default experiments to 8
    for simulation speed and sweep up to 16 in the scaling study (E9).
    """
    return SystemConfig(
        n_cores=8,
        l1=CacheConfig(size_bytes=64 * 1024, assoc=4, block_bytes=64, hit_latency=2),
        memory=MemoryConfig(l2_hit_latency=12, dram_latency=120, directory_latency=4),
        interconnect=InterconnectConfig(link_latency=5),
        core=CoreConfig(consistency=ConsistencyModel.TSO, store_buffer_entries=8),
        speculation=SpeculationConfig(mode=SpeculationMode.NONE),
    )
