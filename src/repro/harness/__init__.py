"""Experiment harness: one declared run grid per reproduced table/figure.

``repro.harness.parallel`` supplies the sweep machinery (RunSpec,
SweepScheduler) that deduplicates identical simulation points across
experiments and ablations and fans unique points out over worker
processes; ``repro.harness.store`` persists their results across runs.
"""

from repro.harness.parallel import (
    RunSpec,
    SweepError,
    SweepReport,
    SweepScheduler,
    execute_specs,
    point_fingerprint,
    result_fingerprint,
)
from repro.harness.experiments import (
    Experiment,
    ExperimentResult,
    e1_ordering_breakdown,
    e2_transparency,
    e3_modes,
    e4_violations,
    e5_sensitivity,
    e6_storage,
    e7_commit_arbitration,
    e8_store_buffer,
    e9_scaling,
    e10_system_parameters,
    e11_consistency_fuzz,
    e12_fault_injection,
    e13_fence_synthesis,
    e14_chaos,
    all_experiments,
)

__all__ = [
    "RunSpec",
    "SweepError",
    "SweepReport",
    "SweepScheduler",
    "execute_specs",
    "point_fingerprint",
    "result_fingerprint",
    "Experiment",
    "ExperimentResult",
    "e1_ordering_breakdown",
    "e2_transparency",
    "e3_modes",
    "e4_violations",
    "e5_sensitivity",
    "e6_storage",
    "e7_commit_arbitration",
    "e8_store_buffer",
    "e9_scaling",
    "e10_system_parameters",
    "e11_consistency_fuzz",
    "e12_fault_injection",
    "e13_fence_synthesis",
    "e14_chaos",
    "all_experiments",
    "all_ablations",
    "a1_topology",
    "a2_coalescing",
    "a3_rollback_strategy",
    "a4_store_prefetch",
    "a5_sync_rich_workloads",
]

from repro.harness.ablations import (  # noqa: E402  (avoid circular import)
    a1_topology,
    a2_coalescing,
    a3_rollback_strategy,
    a4_store_prefetch,
    a5_sync_rich_workloads,
    all_ablations,
)
