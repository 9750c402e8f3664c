"""Copy elision on block transfers creates no live alias.

The memory system hands block payload lists over by reference wherever
the sender's copy dies (evictions, invalidation acks, fills, directory
intake on writebacks), and copies wherever the sender keeps its block
(clean-before-write, victim-buffer saves, directory data replies).  If
a site that must copy ever handed its list over instead, two live
holders would share one list, and a write through one would silently
change the other.

This oracle checks identity directly.  A probe event every
:data:`PROBE_INTERVAL` cycles, and a final check after the run, collect
the payload list of every live holder and require them all distinct:

* every resident L1 block's ``data``;
* every victim-buffer save (an L1's pre-speculation copy of a block);
* every directory ``_backing`` entry (the L2 copy).

Writeback entries (``L1Cache._wb``) are left out on purpose: a dirty
eviction's entry shares its list with the ``PUT_M`` it sent, by design,
until the ``PUT_ACK`` retires the entry (both only read it).

The probe reads state and never writes it.
"""

from dataclasses import replace

import pytest

from repro.harness.experiments import e1_plan, mem_plan
from repro.harness.parallel import RunSpec
from repro.sim.config import RollbackStrategy
from repro.system import System

#: Cycles between two probe samples.
PROBE_INTERVAL = 32

#: Event budget per probed run: hundreds of times what these points
#: need, so an aliased run that livelocks within one cycle (where no
#: probe can fire) fails in seconds, not at the default budget.
EVENT_BUDGET = 1_000_000

# Sharing-heavy cross-section: every MEM point at a tiny scale exercises
# speculative rollback surrenders, invalidation acks and evictions; the
# E1 spin points add the no-speculation eviction/writeback paths.
_SPECS = mem_plan(n_cores=2, scale=0.2) + e1_plan(n_cores=2, scale=0.2)[:6]


def _victim_buffer(spec):
    speculation = replace(spec.config.speculation,
                          rollback_strategy=RollbackStrategy.VICTIM_BUFFER)
    return RunSpec("victim-buffer|" + spec.label,
                   replace(spec.config, speculation=speculation),
                   spec.workload)


# The grid above rolls back by clean-before-write, which saves nothing
# in the L1; the speculating barrier-stencil points rerun under the
# victim-buffer strategy put the third holder kind under the probe.
_VICTIM_SPECS = [_victim_buffer(s) for s in mem_plan(n_cores=2, scale=0.2)
                 if s.label.startswith("barrier-stencil")
                 and s.config.speculation.enabled]


def holders(system):
    """``(kind, node, block address, payload)`` for every live holder."""
    for l1 in system.l1s:
        for block in l1.array:
            yield "l1", l1.node_id, block.addr, block.data
        for addr, saved in l1._victim_buffer.items():
            yield "victim", l1.node_id, addr, saved
    for directory in system.directories:
        for addr, data in directory._backing.items():
            yield "dir", directory.node_id, addr, data


def run_probed(spec):
    """Run one point under the probe; return the number of samples (the
    final check included) and the holder kinds seen.

    The first sample that finds two holders sharing one payload raises
    AssertionError from inside the run, so an aliased run that never
    settles cannot spin on to the event budget.
    """
    system = System(spec.config, spec.workload.programs,
                    spec.workload.initial_memory)
    sim = system.sim
    kinds = set()
    samples = 0

    def sample(when):
        nonlocal samples
        samples += 1
        seen = {}
        for kind, node, addr, data in holders(system):
            kinds.add(kind)
            holder = (kind, node, addr)
            first = seen.setdefault(id(data), holder)
            if first is not holder:
                raise AssertionError(
                    f"{spec.label}, cycle {when}: {first} and {holder} "
                    "share one payload list")

    def probe():
        sample(sim.now)
        if not system.all_settled:
            sim.schedule_fast(PROBE_INTERVAL, probe)

    sim.schedule_fast(PROBE_INTERVAL, probe)
    system.run(max_events=EVENT_BUDGET)
    sample("end of run")
    return samples, kinds


@pytest.mark.parametrize("spec", _SPECS + _VICTIM_SPECS,
                         ids=[s.label for s in _SPECS + _VICTIM_SPECS])
def test_no_two_live_holders_share_a_payload(spec):
    samples, _ = run_probed(spec)
    assert samples > 2, "the probe never sampled mid-run"


def test_probe_sees_every_holder_kind():
    """The check is vacuous unless the probed runs populate every
    holder kind: L1 blocks and directory entries on every point,
    victim-buffer saves on every victim-buffer point."""
    for spec in _SPECS:
        assert run_probed(spec)[1] == {"l1", "dir"}, spec.label
    for spec in _VICTIM_SPECS:
        assert run_probed(spec)[1] == {"l1", "dir", "victim"}, spec.label
