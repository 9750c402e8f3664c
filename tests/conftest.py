"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager

import pytest

from repro.isa.program import Assembler
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
from repro.workloads.base import Workload


def small_config(n_cores: int = 2, **spec_kwargs) -> SystemConfig:
    """A small, fast system configuration for unit/integration tests."""
    spec = SpeculationConfig(**spec_kwargs) if spec_kwargs else SpeculationConfig()
    return SystemConfig(
        n_cores=n_cores,
        l1=CacheConfig(size_bytes=4 * 1024, assoc=4, block_bytes=64, hit_latency=2),
        memory=MemoryConfig(l2_hit_latency=8, dram_latency=40, directory_latency=2),
        interconnect=InterconnectConfig(link_latency=3),
        core=CoreConfig(store_buffer_entries=8),
        speculation=spec,
    )


def counter_workload(n_cores: int = 2, iters: int = 50) -> Workload:
    """Private per-core counters: every core bumps its own word."""
    programs = []
    for tid in range(n_cores):
        asm = Assembler(f"nf.t{tid}")
        asm.li(1, 0x1_0000 + 64 * tid).li(2, 0).li(24, 1)
        loop = f"loop_{tid}"
        asm.label(loop)
        asm.add(2, 2, 24)
        asm.store(2, base=1)
        asm.slti(3, 2, iters)
        asm.bne(3, 0, loop)
        asm.halt()
        programs.append(asm.build())
    return Workload(f"nf-counter-{n_cores}", programs, {})


@pytest.fixture
def fusion_off(monkeypatch):
    """``with fusion_off(): ...`` runs its block with superblock fusion off.

    The cores' span lookup finds no spans, so every instruction
    dispatches on its own, and every ``System.run`` in the block must
    report nothing fused -- an "off" run that still fuses fails.
    """
    import repro.cpu.core as core_module
    from repro.system import System

    real_run = System.run

    def run_unfused(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        assert result.fused_instructions() == 0, "fusion was not off"
        return result

    @contextmanager
    def off():
        with monkeypatch.context() as patch:
            patch.setattr(core_module, "superblock_spans", lambda program: ())
            patch.setattr(System, "run", run_unfused)
            yield

    return off


@pytest.fixture
def config2():
    return small_config(2)


@pytest.fixture
def config4():
    return small_config(4)


ALL_MODELS = list(ConsistencyModel)
ALL_SPEC_MODES = list(SpeculationMode)
SPECULATIVE_MODES = [SpeculationMode.ON_DEMAND, SpeculationMode.CONTINUOUS]


# ----------------------------------------------------------- liveness guard
#
# A per-test wall-clock timeout so a simulator hang (the exact bug class
# the watchdog exists for) fails the suite instead of wedging it.
# Homegrown on SIGALRM because the environment has no pytest-timeout
# plugin; it only works on the main thread of a Unix platform, and is a
# no-op elsewhere.

TEST_TIMEOUT_SECONDS = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    use_alarm = (
        TEST_TIMEOUT_SECONDS > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return (yield)

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded {TEST_TIMEOUT_SECONDS}s "
            f"(REPRO_TEST_TIMEOUT): {item.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(TEST_TIMEOUT_SECONDS)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
