"""The paper's six-point comparison grid, shared by experiments,
examples and the benchmark."""

from __future__ import annotations

from typing import Dict

from repro.sim.config import ConsistencyModel, SpeculationMode, SystemConfig


def six_point_configs(base: SystemConfig,
                      mode: SpeculationMode = SpeculationMode.ON_DEMAND
                      ) -> Dict[str, SystemConfig]:
    """The paper's main comparison grid: {SC,TSO,RMO} x {base, InvisiFence}."""
    grid: Dict[str, SystemConfig] = {}
    for model in ConsistencyModel:
        grid[f"base-{model.value}"] = (
            base.with_consistency(model).with_speculation(SpeculationMode.NONE))
        grid[f"if-{model.value}"] = (
            base.with_consistency(model).with_speculation(mode))
    return grid
