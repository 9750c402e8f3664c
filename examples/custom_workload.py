#!/usr/bin/env python
"""Writing your own workload and studying it across configurations.

This walks through the full adoption path for the library:

1. author per-thread programs with the assembler + the provided
   synchronisation macros (here: a double-buffered pipeline where a
   stage hands blocks to the next stage through ticket-locked queues);
2. bundle them into a validated Workload;
3. sweep configurations with the harness helpers;
4. inspect the coherence protocol with the message trace.

Run:  python examples/custom_workload.py
"""

from repro import (
    Assembler,
    ConsistencyModel,
    FenceKind,
    SpeculationMode,
    SystemConfig,
)
from repro.harness.parallel import RunSpec, execute_specs
from repro.harness.runner import six_point_configs
from repro.system import System
from repro.workloads.base import Layout, Workload
from repro.workloads import primitives


def build_pipeline_workload(stages: int = 4, items: int = 10,
                            work_cycles: int = 25) -> Workload:
    """A software pipeline: stage i locks a slot, processes the item,
    and passes it to stage i+1.  Slot i's word counts items that have
    passed stage i."""
    layout = Layout()
    slots = layout.padded_array(stages + 1)
    locks = layout.padded_array(stages + 1)

    programs = []
    for stage in range(stages):
        asm = Assembler(f"stage{stage}")
        asm.li(24, 1)

        def body(asm):
            # Wait until the previous stage has produced more items than
            # we've consumed (our output slot counts our consumption).
            asm.li(1, slots[stage])
            asm.li(2, slots[stage + 1])
            wait = f"wait_{stage}_{id(asm)}_{asm._instructions.__len__()}"
            asm.label(wait)
            asm.load(3, base=1)      # produced by upstream
            asm.load(4, base=2)      # consumed by us
            asm.beq(3, 4, wait)      # nothing new yet
            # Process the item...
            asm.exec_(work_cycles)
            # ...and publish it downstream under the slot lock.
            asm.li(5, locks[stage + 1])
            primitives.emit_tas_acquire(asm, 5)
            asm.load(4, base=2)
            asm.add(4, 4, 24)
            asm.store(4, base=2)
            asm.fence(FenceKind.STORE_STORE)
            primitives.emit_release(asm, 5)

        primitives.emit_counted_loop(asm, items, 10, body)
        asm.halt()
        programs.append(asm.build())

    # The source "stage -1": pre-fill slot 0 with every item.
    source = {slots[0]: items}

    def validate(result):
        for stage in range(1, stages + 1):
            passed = result.read_word(slots[stage])
            assert passed == items, (
                f"stage {stage}: {passed}/{items} items passed"
            )

    return Workload(
        name="pipeline",
        programs=programs,
        initial_memory=source,
        description=f"{stages}-stage pipeline x {items} items",
        validate=validate,
    )


def main():
    workload = build_pipeline_workload()
    print(f"Workload: {workload.description}\n")

    # Sweep the six main configurations.
    base = SystemConfig(n_cores=workload.n_threads)
    results = execute_specs([RunSpec(label, config, workload)
                             for label, config
                             in six_point_configs(base).items()])
    rmo = results["base-rmo"].cycles
    print(f"{'config':<10s} {'cycles':>8s} {'vs base-rmo':>12s} "
          f"{'ordering stalls':>16s}")
    for label in ("base-sc", "base-tso", "base-rmo",
                  "if-sc", "if-tso", "if-rmo"):
        r = results[label]
        print(f"{label:<10s} {r.cycles:>8d} {r.cycles / rmo:>12.3f} "
              f"{r.ordering_stall_cycles():>16d}")

    # Peek at the protocol with the trace facility.
    print("\nLast few coherence messages of an IF-SC run:")
    config = (base.with_consistency(ConsistencyModel.SC)
              .with_speculation(SpeculationMode.ON_DEMAND))
    system = System(config, workload.programs, workload.initial_memory)
    trace = system.enable_tracing()
    result = system.run()
    workload.check(result)
    print(trace.render(last=8))


if __name__ == "__main__":
    main()
