"""Consistency-model policies: when must the core wait for its store buffer?

Each policy answers, per instruction class, whether the operation may
proceed while (program-order-earlier) stores are still buffered.  This
is exactly the decision InvisiFence intercepts: wherever a policy says
"drain first", the speculative core checkpoints and continues instead.

Model summary for our in-order core with a FIFO store buffer:

========  =============  ===========  ==================  ==========
model     load w/ SB     store w/ SB  fence drains        forwarding
========  =============  ===========  ==================  ==========
SC        drain          drain        (trivially empty)   no
TSO       proceed        proceed      StoreLoad / FULL    yes
RMO       proceed        proceed      StoreLoad / FULL    yes
========  =============  ===========  ==================  ==========

Atomics drain the store buffer under every model (they are the
serialisation points of lock-based code; implementing them as
acquire+release barriers matches commercial practice and is what makes
the paper's "atomics hurt even RMO" observation appear).

Because the core is in-order and the store buffer is FIFO, RMO's
LoadLoad/LoadStore/StoreStore fences are satisfied by construction and
cost nothing; only StoreLoad ordering (and FULL) requires a drain.
So the TSO and RMO rows are equal: :func:`canonical_model` maps RMO to
TSO, and a sweep simulates an RMO point and its TSO twin once.
"""

from __future__ import annotations

import abc

from repro.isa.instructions import FenceKind
from repro.sim.config import ConsistencyModel


class ConsistencyPolicy(abc.ABC):
    """Ordering decisions for one memory consistency model."""

    model: ConsistencyModel

    @abc.abstractmethod
    def load_requires_drain(self) -> bool:
        """Must a load wait for the store buffer to drain before issuing?"""

    @abc.abstractmethod
    def store_requires_drain(self) -> bool:
        """Must a store wait for earlier stores to be globally performed?"""

    @abc.abstractmethod
    def fence_requires_drain(self, kind: FenceKind) -> bool:
        """Does this fence kind require a store-buffer drain?"""

    @abc.abstractmethod
    def atomic_requires_drain(self) -> bool:
        """Must an atomic RMW wait for the store buffer to drain?"""

    @property
    @abc.abstractmethod
    def allows_store_forwarding(self) -> bool:
        """May loads read pending store-buffer values (bypass)?"""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class SCPolicy(ConsistencyPolicy):
    """Sequential consistency: every memory operation waits for all
    earlier stores to complete; the store buffer gives no overlap."""

    model = ConsistencyModel.SC

    def load_requires_drain(self) -> bool:
        return True

    def store_requires_drain(self) -> bool:
        return True

    def fence_requires_drain(self, kind: FenceKind) -> bool:
        # Redundant under SC (per-op draining keeps the buffer empty),
        # but semantically a fence still requires emptiness.
        return True

    def atomic_requires_drain(self) -> bool:
        return True

    @property
    def allows_store_forwarding(self) -> bool:
        return False


class TSOPolicy(ConsistencyPolicy):
    """Total store order: loads bypass the FIFO store buffer (with
    same-address forwarding); StoreLoad ordering costs a drain."""

    model = ConsistencyModel.TSO

    def load_requires_drain(self) -> bool:
        return False

    def store_requires_drain(self) -> bool:
        return False

    def fence_requires_drain(self, kind: FenceKind) -> bool:
        return kind.orders_store_load

    def atomic_requires_drain(self) -> bool:
        return True

    @property
    def allows_store_forwarding(self) -> bool:
        return True


class RMOPolicy(ConsistencyPolicy):
    """Relaxed memory order: only explicit StoreLoad/FULL fences (and
    atomics) drain.  The in-order core + FIFO buffer satisfy the other
    directional fences by construction (slightly stronger than
    architectural RMO; documented in DESIGN.md)."""

    model = ConsistencyModel.RMO

    def load_requires_drain(self) -> bool:
        return False

    def store_requires_drain(self) -> bool:
        return False

    def fence_requires_drain(self, kind: FenceKind) -> bool:
        return kind.orders_store_load

    def atomic_requires_drain(self) -> bool:
        return True

    @property
    def allows_store_forwarding(self) -> bool:
        return True


_POLICIES = {
    ConsistencyModel.SC: SCPolicy,
    ConsistencyModel.TSO: TSOPolicy,
    ConsistencyModel.RMO: RMOPolicy,
}


def policy_for(model: ConsistencyModel) -> ConsistencyPolicy:
    """Instantiate the policy object for a consistency model."""
    return _POLICIES[model]()


def _answers(policy: ConsistencyPolicy) -> tuple:
    """Every answer :class:`~repro.cpu.core.Core` asks ``policy`` for."""
    return (policy.load_requires_drain(), policy.store_requires_drain(),
            policy.atomic_requires_drain(), policy.allows_store_forwarding,
            tuple(policy.fence_requires_drain(kind) for kind in FenceKind))


def _canonical_models() -> dict:
    answers = {model: _answers(policy_for(model)) for model in ConsistencyModel}
    return {model: next(first for first in ConsistencyModel
                        if answers[first] == answers[model])
            for model in ConsistencyModel}


#: model -> the first model whose policy answers every question alike.
_CANONICAL = _canonical_models()


def canonical_model(model: ConsistencyModel) -> ConsistencyModel:
    """The first :class:`ConsistencyModel` whose policy gives the same
    answer as ``model``'s to every question the core asks.

    The core reads its model only through :func:`policy_for`, so two
    configs that differ only in models with one canonical model build
    the same machine: on this in-order core with a FIFO store buffer,
    RMO's canonical model is TSO (see the table above).  The sweep keys
    points by it (:func:`repro.harness.parallel.point_fingerprint`).
    """
    return _CANONICAL[model]
