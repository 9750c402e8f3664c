"""Seeded random workload generators: stress, ablation and property-test fuel.

* :func:`random_mix` -- straight-line programs with a parameterised
  instruction mix over private and shared regions.  With
  ``shared_words=0`` the final state is interleaving-independent, so
  property tests compare it word-for-word against the functional
  reference interpreter.
* :func:`false_sharing` -- every thread updates its *own* word, but all
  the words live in one cache block: maximal coherence ping-pong with
  zero true sharing.  The ablation workload for block- vs
  word-granularity violation detection (E4).
* :func:`fence_density_sweep_program` -- fixed work with a controllable
  fence rate, used by the sensitivity experiments.
* :func:`random_litmus_ops` / :func:`compile_litmus_ops` -- the
  consistency fuzzer's program IR: small random multi-threaded litmus
  tests over a handful of shared words, every written value globally
  unique so the checker can reconstruct reads-from edges exactly.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.isa.instructions import FenceKind
from repro.isa.program import Assembler, Program
from repro.workloads.base import Layout, Workload

R_ONE = 24
R_ADDR = 1
R_VAL = 2
R_SUM = 3
R_LOOP = 5


def random_mix(
    n_threads: int,
    n_instructions: int = 200,
    seed: int = 1,
    private_words: int = 32,
    shared_words: int = 8,
    pct_load: float = 0.35,
    pct_store: float = 0.30,
    pct_atomic: float = 0.05,
    pct_fence: float = 0.05,
) -> Workload:
    """Straight-line random programs with the given instruction mix.

    The remaining probability mass is EXEC compute.  Loads accumulate
    into ``r3`` (a checksum the tests can compare across engines);
    stores write a per-thread rolling value.  ``shared_words=0`` makes
    the outcome deterministic regardless of interleaving.
    """
    if pct_load + pct_store + pct_atomic + pct_fence > 1.0:
        raise ValueError("instruction mix probabilities exceed 1.0")
    layout = Layout()
    shared_base = layout.array(shared_words) if shared_words else None
    private_bases = [layout.array(private_words) for _ in range(n_threads)]

    rng = random.Random(seed)
    programs: List[Program] = []
    for tid in range(n_threads):
        asm = Assembler(f"randmix.t{tid}")
        asm.li(R_ONE, 1)
        asm.li(R_SUM, 0)
        rolling = tid + 1
        for _ in range(n_instructions):
            roll = rng.random()
            use_shared = shared_words > 0 and rng.random() < 0.3
            if use_shared:
                addr = shared_base + 8 * rng.randrange(shared_words)
            else:
                addr = private_bases[tid] + 8 * rng.randrange(private_words)
            asm.li(R_ADDR, addr)
            if roll < pct_load:
                asm.load(R_VAL, base=R_ADDR)
                asm.add(R_SUM, R_SUM, R_VAL)
            elif roll < pct_load + pct_store:
                rolling = (rolling * 7 + 3) % 1000
                asm.li(R_VAL, rolling)
                asm.store(R_VAL, base=R_ADDR)
            elif roll < pct_load + pct_store + pct_atomic:
                asm.fetch_add(R_VAL, base=R_ADDR, addend=R_ONE)
            elif roll < pct_load + pct_store + pct_atomic + pct_fence:
                asm.fence(rng.choice(list(FenceKind)))
            else:
                asm.exec_(rng.randrange(1, 6))
        asm.halt()
        programs.append(asm.build())

    return Workload(
        name="random-mix",
        programs=programs,
        description=(f"{n_threads} threads x {n_instructions} random ops "
                     f"(seed={seed}, shared={shared_words}w)"),
    )


# --------------------------------------------------------------------------
# Consistency-fuzzer litmus IR
#
# The fuzzer (repro.verification.fuzz) wants programs it can *shrink*:
# an op-level IR that survives dropping arbitrary ops or whole threads
# and recompiles to a runnable Program.  Compilation is deliberately
# minimal -- absolute addressing through the hardwired-zero register --
# so the instruction count of a shrunk reproducer stays readable.

#: Base of the shared region litmus ops target; words are spaced one
#: cache block apart so block-granularity effects never alias locations.
LITMUS_BASE = 0x1000
LITMUS_STRIDE = 64


class MemOp(NamedTuple):
    """One litmus-IR operation of a single thread.

    ``kind`` is one of ``"load"``, ``"store"``, ``"swap"`` (an atomic
    exchange: the only RMW whose written value the generator fully
    controls, which unique-value provenance needs), ``"fence"`` or
    ``"delay"`` (EXEC padding used for timing skew).
    """

    kind: str
    addr: int = 0               #: absolute word address (memory ops)
    value: int = 0              #: written value (store/swap)
    fence: FenceKind = FenceKind.FULL
    cycles: int = 1             #: padding length (delay)


def litmus_addr(word: int) -> int:
    """Absolute address of shared word ``word`` in the litmus region."""
    return LITMUS_BASE + LITMUS_STRIDE * word


def random_litmus_ops(
    n_threads: int,
    ops_per_thread: int,
    seed: int,
    shared_words: int = 3,
    pct_store: float = 0.4,
    pct_atomic: float = 0.1,
    pct_fence: float = 0.1,
    pct_delay: float = 0.15,
    max_delay: int = 30,
) -> List[List[MemOp]]:
    """Seeded random litmus program: one op list per thread.

    Every written value is globally unique (counting up from 1, never
    colliding with the initial 0), so a recorded execution's reads-from
    relation is recoverable by value -- the property the per-model
    ordering checker and the coherence checker's non-vacuousness
    assertion (``locations_skipped == 0``) rely on.  The remaining
    probability mass after stores/atomics/fences/delays is loads.
    """
    rng = random.Random(seed)
    next_value = 1
    threads: List[List[MemOp]] = []
    for _ in range(n_threads):
        ops: List[MemOp] = []
        for _ in range(ops_per_thread):
            roll = rng.random()
            addr = litmus_addr(rng.randrange(shared_words))
            if roll < pct_store:
                ops.append(MemOp("store", addr=addr, value=next_value))
                next_value += 1
            elif roll < pct_store + pct_atomic:
                ops.append(MemOp("swap", addr=addr, value=next_value))
                next_value += 1
            elif roll < pct_store + pct_atomic + pct_fence:
                ops.append(MemOp("fence", fence=rng.choice(list(FenceKind))))
            elif roll < pct_store + pct_atomic + pct_fence + pct_delay:
                ops.append(MemOp("delay", cycles=rng.randrange(1, max_delay)))
            else:
                ops.append(MemOp("load", addr=addr))
        threads.append(ops)
    return threads


#: Compiled litmus programs kept by :func:`compile_litmus_ops`.  A
#: campaign runs each (threads, skews) pair under all its configs back
#: to back, so a few live entries serve it; the bound also keeps a
#: campaign's programs from outliving it.
LITMUS_MEMO_SIZE = 16


def compile_litmus_ops(
    threads: Sequence[Sequence[MemOp]],
    skews: Optional[Sequence[int]] = None,
    name: str = "fuzz",
) -> List[Program]:
    """Compile litmus IR to runnable programs.

    ``skews`` prepends per-thread EXEC padding, the sweep's lever for
    steering which interleavings the simulator explores.  Addressing is
    absolute (base = hardwired-zero r0, address in the immediate), so a
    load costs one instruction and a store/swap two -- shrunk
    reproducers stay close to hand-written litmus tests.

    Compiles are memoized per process (an LRU of
    :data:`LITMUS_MEMO_SIZE` entries keyed by the arguments as tuples):
    every call returns a new list, but repeated calls share the same
    frozen :class:`Program` objects, and with them each program's
    derived decode data (see :meth:`Program.derived`).
    """
    return list(_compile_litmus(tuple(tuple(ops) for ops in threads),
                                tuple(skews) if skews else (), name))


@lru_cache(maxsize=LITMUS_MEMO_SIZE)
def _compile_litmus(threads: Tuple[Tuple[MemOp, ...], ...],
                    skews: Tuple[int, ...], name: str) -> Tuple[Program, ...]:
    programs = []
    for tid, ops in enumerate(threads):
        asm = Assembler(f"{name}.t{tid}")
        if skews and skews[tid]:
            asm.exec_(skews[tid])
        for op in ops:
            if op.kind == "load":
                asm.load(R_VAL, base=0, offset=op.addr)
            elif op.kind == "store":
                asm.li(R_VAL, op.value)
                asm.store(R_VAL, base=0, offset=op.addr)
            elif op.kind == "swap":
                asm.li(R_VAL, op.value)
                asm.swap(R_SUM, base=0, value=R_VAL, offset=op.addr)
            elif op.kind == "fence":
                asm.fence(op.fence)
            elif op.kind == "delay":
                asm.exec_(op.cycles)
            else:
                raise ValueError(f"unknown litmus op kind {op.kind!r}")
        asm.halt()
        programs.append(asm.build())
    return tuple(programs)


def litmus_instruction_count(threads: Sequence[Sequence[MemOp]]) -> int:
    """Compiled instruction count (HALTs and skew padding excluded)."""
    cost = {"load": 1, "store": 2, "swap": 2, "fence": 1, "delay": 1}
    return sum(cost[op.kind] for ops in threads for op in ops)


# --------------------------------------------------------------------------
# Fence-placement hooks on the litmus IR
#
# The fence synthesizer (repro.verification.synth) searches over *where*
# to put fences, so placement is a first-class IR edit: a candidate
# point is a gap between two ops of one thread, and inserting a fence
# is a pure IR -> IR transform that recompiles like any other litmus
# program.  Keeping these here (next to MemOp) rather than in the
# synthesizer makes placements printable/reproducible artifacts of the
# same IR the shrinker and reproducer emitter already speak.

#: Litmus-IR op kinds that touch memory; only gaps separating two of
#: these are candidate fence points (a fence next to pure delay padding
#: orders nothing).
_MEMORY_KINDS = ("load", "store", "swap")


class FencePlacement(NamedTuple):
    """One synthesized fence: ``kind`` inserted before op ``gap`` of
    ``thread`` (gap ``g`` is the point between ops ``g-1`` and ``g``)."""

    thread: int
    gap: int
    kind: FenceKind

    def describe(self) -> str:
        return f"t{self.thread}@{self.gap}:{self.kind.value}"


def fence_gaps(threads: Sequence[Sequence[MemOp]]) -> List[tuple]:
    """All candidate fence points of a litmus program.

    A gap qualifies when at least one memory op (load/store/swap) sits
    on each side of it within the thread: a fence anywhere else orders
    nothing the checker can see.  Returned as ``(thread, gap)`` pairs in
    deterministic (thread-major, ascending-gap) order.
    """
    points: List[tuple] = []
    for tid, ops in enumerate(threads):
        mem = [i for i, op in enumerate(ops) if op.kind in _MEMORY_KINDS]
        if len(mem) < 2:
            continue
        for gap in range(mem[0] + 1, mem[-1] + 1):
            points.append((tid, gap))
    return points


def insert_fences(threads: Sequence[Sequence[MemOp]],
                  placements: Sequence[FencePlacement]):
    """The litmus program with every placement's fence op inserted.

    Pure transform: returns a new tuple-of-tuples IR, inserting each
    fence *before* the op its gap names (descending-gap order per
    thread keeps indices stable).  Placements must be in range.
    """
    new_threads = [list(ops) for ops in threads]
    for p in sorted(placements, key=lambda p: (p.thread, -p.gap)):
        ops = new_threads[p.thread]
        if not 0 <= p.gap <= len(ops):
            raise ValueError(f"fence gap out of range: {p}")
        ops.insert(p.gap, MemOp("fence", fence=p.kind))
    return tuple(tuple(ops) for ops in new_threads)


def false_sharing(
    n_threads: int,
    iterations: int = 40,
    fence_every: int = 4,
) -> Workload:
    """Per-thread counters packed into one cache block.

    No word is ever shared, yet under block-granularity coherence every
    update invalidates everyone -- and under block-granularity
    speculation every invalidation aborts whoever was speculating.
    A FULL fence every ``fence_every`` iterations supplies the
    speculation triggers.
    """
    if n_threads > 8:
        raise ValueError("one 64-byte block holds at most 8 per-thread words")
    layout = Layout()
    block_base = layout.array(8)
    counters = [block_base + 8 * i for i in range(n_threads)]

    programs = []
    for tid in range(n_threads):
        asm = Assembler(f"false_sharing.t{tid}")
        asm.li(R_ONE, 1)
        asm.li(R_ADDR, counters[tid])
        for i in range(iterations):
            asm.load(R_VAL, base=R_ADDR)
            asm.add(R_VAL, R_VAL, R_ONE)
            asm.store(R_VAL, base=R_ADDR)
            if fence_every and i % fence_every == fence_every - 1:
                asm.fence(FenceKind.FULL)
        asm.halt()
        programs.append(asm.build())

    def validate(result) -> None:
        for tid in range(n_threads):
            value = result.read_word(counters[tid])
            assert value == iterations, (
                f"thread {tid}: counter {value} != {iterations} "
                "(a rollback lost or replayed an update)"
            )

    return Workload(
        name="false-sharing",
        programs=programs,
        description=f"{n_threads} threads x {iterations} same-block updates",
        validate=validate,
    )


def read_side_false_sharing(
    n_readers: int = 3,
    iterations: int = 40,
) -> Workload:
    """One writer, many readers, all on different words of one block.

    The writer updates word 0; each reader speculatively *reads* its own
    word (its speculation windows come from fenced private stores).  The
    readers' SR bits land on the shared block, so every writer update
    aborts them under BLOCK granularity -- but never under the WORD
    oracle, because the written word provably misses their read sets.
    This is the workload that separates the two modes in E4.
    """
    n_threads = n_readers + 1
    if n_threads > 8:
        raise ValueError("one 64-byte block holds at most 8 words")
    layout = Layout()
    block_base = layout.array(8)
    # Each reader stores into a fresh, never-touched block every
    # iteration: the cold DRAM drain keeps its speculation window open
    # long enough for the writer's invalidations to land inside it.
    cold_regions = [layout.array(8 * (iterations + 1)) for _ in range(n_readers)]

    programs = []
    writer = Assembler("rsfs.writer")
    writer.li(R_ONE, 1)
    writer.li(R_ADDR, block_base)
    for i in range(iterations):
        writer.load(R_VAL, base=R_ADDR)
        writer.add(R_VAL, R_VAL, R_ONE)
        writer.store(R_VAL, base=R_ADDR)
        writer.exec_(5)
    writer.halt()
    programs.append(writer.build())

    for reader in range(n_readers):
        word_addr = block_base + 8 * (reader + 1)
        asm = Assembler(f"rsfs.reader{reader}")
        asm.li(R_ONE, 1)
        asm.li(R_ADDR, word_addr)
        asm.li(4, cold_regions[reader])
        asm.li(R_SUM, 0)
        for i in range(iterations):
            # A slow (cold-miss) store + FULL fence opens a long
            # speculation window...
            asm.store(R_ONE, base=4)
            asm.addi(4, 4, 64)
            asm.fence(FenceKind.FULL)
            # ...inside which this read of the shared block lands (SR).
            asm.load(R_VAL, base=R_ADDR)
            asm.add(R_SUM, R_SUM, R_VAL)
        asm.halt()
        programs.append(asm.build())

    def validate(result) -> None:
        total = result.read_word(block_base)
        assert total == iterations, f"writer count {total} != {iterations}"
        for reader in range(n_readers):
            # Readers only ever see the initial zero in their own word.
            assert result.core_reg(reader + 1, R_SUM) == 0

    return Workload(
        name="read-side-false-sharing",
        programs=programs,
        description=f"1 writer + {n_readers} readers on one block",
        validate=validate,
    )


def fence_density_sweep_program(
    n_threads: int,
    work_units: int = 60,
    ops_per_fence: int = 4,
) -> Workload:
    """Fixed private work with one FULL fence every ``ops_per_fence``
    store/compute units: the knob for fence-frequency sensitivity.

    Each unit stores into a fresh (cold) block, so an eager fence waits
    a full DRAM round trip -- the store-miss-behind-a-fence pattern the
    paper's ordering stalls come from.
    """
    layout = Layout()
    # One block per work unit: every store is a cold miss.
    private_bases = [layout.array(8 * work_units) for _ in range(n_threads)]

    programs = []
    for tid in range(n_threads):
        asm = Assembler(f"fence_density.t{tid}")
        asm.li(R_ONE, 1)
        for unit in range(work_units):
            asm.li(R_ADDR, private_bases[tid] + 64 * unit)
            asm.li(R_VAL, unit + 1)
            asm.store(R_VAL, base=R_ADDR)
            asm.exec_(2)
            if ops_per_fence and unit % ops_per_fence == ops_per_fence - 1:
                asm.fence(FenceKind.FULL)
        asm.halt()
        programs.append(asm.build())

    def validate(result) -> None:
        for tid in range(n_threads):
            for unit in range(work_units):
                value = result.read_word(private_bases[tid] + 64 * unit)
                assert value == unit + 1

    return Workload(
        name="fence-density",
        programs=programs,
        description=(f"{n_threads} threads, fence every {ops_per_fence} "
                     "store units"),
        validate=validate,
    )
