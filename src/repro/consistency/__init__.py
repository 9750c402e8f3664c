"""Memory consistency model enforcement policies."""

from repro.consistency.policies import (
    ConsistencyPolicy,
    RMOPolicy,
    SCPolicy,
    TSOPolicy,
    canonical_model,
    policy_for,
)

__all__ = ["ConsistencyPolicy", "SCPolicy", "TSOPolicy", "RMOPolicy",
           "canonical_model", "policy_for"]
