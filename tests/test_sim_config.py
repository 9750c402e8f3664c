"""Validation and derived-value tests for the configuration dataclasses."""

import pytest

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


class TestCacheConfig:
    def test_defaults_derive_geometry(self):
        c = CacheConfig()
        assert c.n_blocks == 1024
        assert c.n_sets == 256
        assert c.offset_bits == 6

    def test_block_alignment_helpers(self):
        c = CacheConfig(block_bytes=64)
        assert c.block_of(0x1234) == 0x1200
        assert c.block_of(0x1200) == 0x1200

    def test_set_index_wraps(self):
        c = CacheConfig(size_bytes=1024, assoc=2, block_bytes=64)  # 8 sets
        assert c.n_sets == 8
        assert c.set_index(0) == 0
        assert c.set_index(64) == 1
        assert c.set_index(64 * 8) == 0

    def test_non_pow2_block_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(block_bytes=48)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=4, block_bytes=64)

    def test_zero_hit_latency_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(hit_latency=0)

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=64 * 64 * 3, assoc=1, block_bytes=64)


class TestOtherConfigs:
    def test_memory_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(dram_latency=0)

    def test_interconnect_validation(self):
        with pytest.raises(ValueError):
            InterconnectConfig(port_issue_interval=0)
        InterconnectConfig(link_latency=0)  # zero links are allowed

    def test_core_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(store_buffer_entries=0)

    def test_speculation_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(rollback_penalty=-1)
        with pytest.raises(ValueError):
            SpeculationConfig(max_rollbacks_before_stall=0)
        with pytest.raises(ValueError):
            SpeculationConfig(continuous_commit_interval=0)
        with pytest.raises(ValueError):
            SpeculationConfig(arbitration_latency=0)

    def test_speculation_enabled_property(self):
        assert not SpeculationConfig(mode=SpeculationMode.NONE).enabled
        assert SpeculationConfig(mode=SpeculationMode.ON_DEMAND).enabled
        assert SpeculationConfig(mode=SpeculationMode.CONTINUOUS).enabled


class TestSystemConfig:
    def test_with_consistency_is_a_copy(self):
        base = SystemConfig()
        sc = base.with_consistency(ConsistencyModel.SC)
        assert sc.core.consistency is ConsistencyModel.SC
        assert base.core.consistency is ConsistencyModel.TSO

    def test_with_speculation_merges_kwargs(self):
        cfg = SystemConfig().with_speculation(
            SpeculationMode.ON_DEMAND, rollback_penalty=99)
        assert cfg.speculation.mode is SpeculationMode.ON_DEMAND
        assert cfg.speculation.rollback_penalty == 99

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n_cores=0)

    def test_describe_mentions_key_parameters(self):
        text = SystemConfig().describe()
        assert "8 cores" in text
        assert "TSO" in text

    def test_paper_config_matches_documented_defaults(self):
        cfg = SystemConfig()
        assert cfg.l1.size_bytes == 64 * 1024
        assert cfg.memory.dram_latency == 120
        assert not cfg.speculation.enabled
