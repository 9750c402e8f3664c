"""Deterministic fault plans.

A :class:`FaultPlan` describes *how* the interconnect delivery layer is
perturbed -- extra delay jitter, message duplication, transient per-link
stalls, and drop-with-NACK -- plus the retry policy the endpoints use to
recover from drops.  Plans are frozen, validated, and content-fingerprinted
exactly like sweep points: the same seed + the same plan replays the same
fault sequence bit for bit, because the injector consumes one seeded RNG in
simulation (send) order and the simulation itself is deterministic.

The plan deliberately lives *outside* :class:`repro.sim.config.SystemConfig`
so that fault-free runs keep their existing config reprs, point
fingerprints, and golden stats tables unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

from repro.sim.config import _require


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault-injection scenario.

    Probabilities are per *message send*; delays are in cycles.  Drops
    apply only to re-sendable requests/probes (GET/PUT/INV/FWD_GET_S) --
    data responses and acks travel on a reliable channel, mirroring how
    real NoCs protect reply virtual networks (see docs/ROBUSTNESS.md).
    A dropped message is replaced by a NACK to its sender; with
    ``retries_enabled`` the sender re-issues it after an exponential
    backoff, otherwise the loss is permanent (useful for proving the
    watchdog catches the resulting deadlock).
    """

    seed: int = 0
    #: probability of adding uniform extra delay in [1, max_jitter]
    jitter_prob: float = 0.0
    max_jitter: int = 0
    #: probability of delivering a second copy of the message
    dup_prob: float = 0.0
    #: cycles between the original and its duplicate
    dup_lag: int = 3
    #: probability of a transient stall on the (src, dst) pair
    stall_prob: float = 0.0
    stall_cycles: int = 0
    #: probability of dropping a droppable message (NACK returned)
    drop_prob: float = 0.0
    #: deterministically drop the first N droppable messages (on top of
    #: drop_prob; used by directed tests and the acceptance scenario)
    drop_first_n: int = 0
    #: cycles for the NACK to reach the original sender
    nack_latency: int = 5
    retries_enabled: bool = True
    #: retry backoff: base << min(attempt, cap) cycles
    retry_backoff_base: int = 8
    retry_backoff_cap: int = 6

    def __post_init__(self) -> None:
        _require(self.seed >= 0, "seed must be >= 0")
        for name in ("jitter_prob", "dup_prob", "stall_prob", "drop_prob"):
            value = getattr(self, name)
            _require(0.0 <= value <= 1.0, f"{name} must be in [0, 1]")
        _require(self.max_jitter >= 0, "max_jitter must be >= 0")
        _require(self.jitter_prob == 0.0 or self.max_jitter > 0,
                 "jitter_prob > 0 requires max_jitter > 0")
        _require(self.dup_lag >= 1, "dup_lag must be >= 1")
        _require(self.stall_cycles >= 0, "stall_cycles must be >= 0")
        _require(self.stall_prob == 0.0 or self.stall_cycles > 0,
                 "stall_prob > 0 requires stall_cycles > 0")
        _require(self.drop_first_n >= 0, "drop_first_n must be >= 0")
        _require(self.nack_latency >= 1, "nack_latency must be >= 1")
        _require(self.retry_backoff_base >= 1, "retry_backoff_base must be >= 1")
        _require(self.retry_backoff_cap >= 0, "retry_backoff_cap must be >= 0")

    @property
    def active(self) -> bool:
        """True if this plan can perturb anything at all."""
        return bool(self.jitter_prob or self.dup_prob or self.stall_prob
                    or self.drop_prob or self.drop_first_n)

    def fingerprint(self) -> str:
        """Content hash, stable across processes (like point fingerprints)."""
        return hashlib.sha256(repr(self).encode()).hexdigest()

    def describe(self) -> str:
        """Compact human-readable summary for labels and reports."""
        parts = [f"seed={self.seed}"]
        if self.jitter_prob:
            parts.append(f"jitter={self.jitter_prob:g}/{self.max_jitter}")
        if self.dup_prob:
            parts.append(f"dup={self.dup_prob:g}")
        if self.stall_prob:
            parts.append(f"stall={self.stall_prob:g}/{self.stall_cycles}")
        if self.drop_prob or self.drop_first_n:
            drops = f"drop={self.drop_prob:g}"
            if self.drop_first_n:
                drops += f"+first{self.drop_first_n}"
            parts.append(drops)
            parts.append("retries=on" if self.retries_enabled else "retries=off")
        if len(parts) == 1:
            parts.append("clean")
        return " ".join(parts)


def fault_scenarios(seed: int = 0) -> Dict[str, FaultPlan]:
    """The named scenarios E12 and ``examples/run_faults.py`` sweep.

    Ordered from benign to hostile; "none" is the fault-free control.
    """
    return {
        "none": FaultPlan(seed=seed),
        "jitter": FaultPlan(seed=seed, jitter_prob=0.3, max_jitter=9),
        "duplication": FaultPlan(seed=seed, dup_prob=0.25, dup_lag=4),
        "stalls": FaultPlan(seed=seed, stall_prob=0.08, stall_cycles=40),
        "drop-retry": FaultPlan(seed=seed, drop_prob=0.12),
        "storm": FaultPlan(seed=seed, jitter_prob=0.2, max_jitter=7,
                           dup_prob=0.15, dup_lag=3,
                           stall_prob=0.05, stall_cycles=25,
                           drop_prob=0.08),
    }
