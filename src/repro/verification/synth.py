"""Automatic fence synthesis against the per-model ordering checker.

Given a fence-free (or under-fenced) litmus program running on the
relaxed (RMO) machine, find a **minimal set of fence placements** whose
insertion restores a stronger *target* model's outcomes (SC, or TSO), in the style of Alglave et al.'s "Don't sit on
the fence" -- fence selection as minimal-set search against a
memory-model oracle.  The search is the shared delta-debugging engine
(:func:`repro.verification.minimize.minimize`) run *upward*: start from
a FULL fence in every candidate gap (provably sufficient -- it
reinstates all of program order), then greedily drop fences and weaken
the survivors to directional kinds while the program stays clean.

The oracle has two layers
=========================

**Static (exact):** enumerate every axiomatic execution witness of the
program -- all per-location coherence orders x all reads-from choices
-- encode each as a synthetic recorder log, and keep the fence set only
if every witness consistent with the *source* model's axioms (fences
included) also satisfies the *target* model's axioms
(:func:`check_model_ordering` both times).  This layer is complete up
to ``max_witnesses``: it sees relaxations the simulated machine never
performs dynamically.  That matters because our machine only ever
relaxes store->load (in-order core, blocking loads, FIFO store buffer)
-- MP's store->store / load->load holes and LB's load->store hole are
*architecturally* present under RMO but never manifest in execution, so
an execution-only oracle would wrongly certify the empty fence set.

**Dynamic (confirming):** run the fenced program on the actual RMO
machine across the fuzzer's axes -- speculation modes x timing skews
(plus seeded skew retries) -- and check each recorded execution against
the target model.  Timing noise therefore gets extra chances to
*refute* a candidate reduction, never to certify one; and a machine
weaker than its own axioms (a real bug) is caught here rather than
silently fenced around.

Soundness caveat (see docs/VERIFICATION.md): the static layer is exact
only below the witness cap, the dynamic layer is execution-based, and
greedy minimization is per-seed -- the result is a minimal *fixpoint*
for the sweep it ran, reproducible for a fixed seed, not a certified
global minimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import FenceKind
from repro.sim.config import ConsistencyModel, SpeculationMode
from repro.system import System, SystemResult
from repro.verification.checker import ConsistencyViolation, check_execution
from repro.verification.fuzz import (
    FUZZ_MAX_CYCLES,
    SKEW_CHOICES,
    SWEEP_SPECS,
    fuzz_config,
)
from repro.verification.minimize import Budget, minimize
from repro.verification.ordering import check_model_ordering
from repro.verification.recorder import (
    AccessKind,
    AccessRecord,
    ExecutionRecorder,
    FenceRecord,
)
from repro.workloads.randmix import (
    FencePlacement,
    MemOp,
    compile_litmus_ops,
    fence_gaps,
    insert_fences,
)

#: Weakening ladder: kinds tried (in order) as replacements for a FULL
#: fence the drop pass could not remove.  Non-draining directional
#: fences first -- on this machine only StoreLoad/FULL fences stall the
#: core, so a successful weakening to the first three is free at run
#: time; STORE_LOAD last, still cheaper than FULL for the checker (it
#: orders one class pair, not four).
WEAKEN_LADDER = (FenceKind.LOAD_LOAD, FenceKind.LOAD_STORE,
                 FenceKind.STORE_STORE, FenceKind.STORE_LOAD)

#: Default cap on enumerated witnesses per static oracle query.  Litmus
#: shapes sit far below it (SB/MP/LB have <= 4); a program that
#: exceeds it marks the result ``capped`` instead of silently passing.
MAX_WITNESSES = 20_000


@dataclass
class OracleStats:
    """Work counters for one synthesis run (all layers)."""

    static_checks: int = 0       #: static oracle queries (fence sets tried)
    witnesses_checked: int = 0   #: witness logs fed to the checker
    dynamic_runs: int = 0        #: full machine simulations
    capped: bool = False         #: a static query hit ``max_witnesses``


# ------------------------------------------------------ witness oracle

class _Event:
    """One memory event of the static skeleton (fences live apart)."""

    __slots__ = ("tid", "po", "kind", "addr", "wval")

    def __init__(self, tid: int, po: int, kind: str, addr: int,
                 wval: Optional[int]) -> None:
        self.tid = tid
        self.po = po
        self.kind = kind        # "load" | "store" | "swap"
        self.addr = addr
        self.wval = wval        # written value (None for loads)


def _skeleton(threads: Sequence[Sequence[MemOp]]
              ) -> Tuple[List[_Event], List[FenceRecord]]:
    events: List[_Event] = []
    fences: List[FenceRecord] = []
    values = []
    for tid, ops in enumerate(threads):
        for po, op in enumerate(ops):
            if op.kind == "fence":
                fences.append(FenceRecord(core=tid, po=po, kind=op.fence,
                                          speculative=False))
            elif op.kind == "load":
                events.append(_Event(tid, po, "load", op.addr, None))
            elif op.kind in ("store", "swap"):
                events.append(_Event(tid, po, op.kind, op.addr, op.value))
                values.append(op.value)
            elif op.kind != "delay":
                raise ValueError(f"unknown litmus op kind {op.kind!r}")
    if len(set(values)) != len(values) or 0 in values:
        raise ValueError(
            "fence synthesis requires globally unique nonzero written "
            "values (reads-from must be recoverable by value)")
    return events, fences


def enumerate_witness_logs(threads: Sequence[Sequence[MemOp]]
                           ) -> Iterator[ExecutionRecorder]:
    """Every axiomatic execution witness of a litmus program, as a log.

    A witness is one choice of per-location coherence order (all
    permutations of each location's writes, pruned of those that invert
    one thread's program order -- uniproc rejects them under every
    model) crossed with one reads-from choice per read (any write to
    the same location except the reading RMW itself, or the initial
    value).  The witness is encoded as a synthetic recorder log the
    ordering checker accepts natively: write cycles encode coherence
    position (the checker derives co from apply order), read values
    encode rf (the checker derives rf by value), and RMW atomicity
    needs no special casing -- a write intervening between an RMW and
    the write it read from closes a co/fr cycle of two, so every model
    rejects that witness.
    """
    events, fences = _skeleton(threads)
    writes_by_addr: Dict[int, List[int]] = {}
    for i, ev in enumerate(events):
        if ev.wval is not None:
            writes_by_addr.setdefault(ev.addr, []).append(i)

    def po_consistent(order: Tuple[int, ...]) -> bool:
        last: Dict[int, int] = {}
        for i in order:
            ev = events[i]
            if ev.tid in last and last[ev.tid] > ev.po:
                return False
            last[ev.tid] = ev.po
        return True

    co_domains = [
        [p for p in permutations(ws) if po_consistent(p)]
        for _, ws in sorted(writes_by_addr.items())
    ]
    readers = [i for i, ev in enumerate(events) if ev.kind in ("load", "swap")]
    rf_domains = [
        [w for w in writes_by_addr.get(events[i].addr, []) if w != i] + [None]
        for i in readers
    ]

    for co_combo in product(*co_domains):
        cycle_of: Dict[int, int] = {}
        for order in co_combo:
            for pos, i in enumerate(order):
                cycle_of[i] = pos + 1
        for rf_combo in product(*rf_domains):
            rf = dict(zip(readers, rf_combo))
            records = []
            for seq, ev in enumerate(events):
                if ev.kind == "load":
                    src = rf[seq]
                    value = 0 if src is None else events[src].wval
                    records.append(AccessRecord(
                        seq, 0, ev.tid, AccessKind.READ, ev.addr, value,
                        None, False, po=ev.po))
                elif ev.kind == "store":
                    records.append(AccessRecord(
                        seq, cycle_of[seq], ev.tid, AccessKind.WRITE,
                        ev.addr, ev.wval, None, False, po=ev.po))
                else:  # swap
                    src = rf[seq]
                    value = 0 if src is None else events[src].wval
                    records.append(AccessRecord(
                        seq, cycle_of[seq], ev.tid, AccessKind.RMW,
                        ev.addr, value, ev.wval, False, po=ev.po))
            recorder = ExecutionRecorder()
            recorder.committed = records
            recorder.fences = list(fences)
            yield recorder


def static_counterexample(threads: Sequence[Sequence[MemOp]],
                          source: ConsistencyModel,
                          target: ConsistencyModel,
                          max_witnesses: int = MAX_WITNESSES,
                          stats: Optional[OracleStats] = None,
                          ) -> Optional[str]:
    """A witness allowed by ``source`` (fences included) that violates
    ``target``, rendered; None when no such witness exists (up to the
    cap -- a capped query sets ``stats.capped``)."""
    stats = stats if stats is not None else OracleStats()
    stats.static_checks += 1
    checked = 0
    for recorder in enumerate_witness_logs(threads):
        if checked >= max_witnesses:
            stats.capped = True
            break
        checked += 1
        stats.witnesses_checked += 1
        try:
            check_model_ordering(recorder, source)
        except ConsistencyViolation:
            continue            # impossible under the source model
        try:
            check_model_ordering(recorder, target)
        except ConsistencyViolation as exc:
            return str(exc)
    return None


# ------------------------------------------------------ dynamic oracle

def dynamic_counterexample(threads: Sequence[Sequence[MemOp]],
                           source: ConsistencyModel,
                           target: ConsistencyModel,
                           specs: Sequence[SpeculationMode] = SWEEP_SPECS,
                           skew_sets: Sequence[Tuple[int, ...]] = ((),),
                           stats: Optional[OracleStats] = None,
                           ) -> Optional[str]:
    """Run the program on the ``source`` machine across the sweep axes
    and check every recorded execution against ``target``; the first
    violating point rendered, or None when the whole grid is clean."""
    stats = stats if stats is not None else OracleStats()
    for spec, skews in product(specs, skew_sets):
        programs = compile_litmus_ops(threads, skews=skews or None,
                                      name="synth")
        system = System(fuzz_config(len(threads), source, spec), programs)
        recorder = ExecutionRecorder.attach(system)
        system.run(check_invariants=True, max_cycles=FUZZ_MAX_CYCLES)
        stats.dynamic_runs += 1
        try:
            report = check_execution(recorder, model=target)
        except ConsistencyViolation as exc:
            return f"spec={spec.value} skews={tuple(skews)}: {exc}"
        if report["locations_skipped"]:
            raise RuntimeError(
                "synthesis workload produced duplicate written values; "
                "the dynamic oracle would be vacuous")
    return None


# ------------------------------------------------------------ synthesis

@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one fence-synthesis run (a reproducible artifact)."""

    threads: Tuple[Tuple[MemOp, ...], ...]
    source: ConsistencyModel
    target: ConsistencyModel
    placements: Tuple[FencePlacement, ...]
    sufficient: bool         #: final set confirmed by both oracle layers
    candidate_gaps: int      #: fence points the search ranged over
    oracle_queries: int      #: fence sets submitted to the oracle
    static_checks: int
    witnesses_checked: int
    dynamic_runs: int
    capped: bool             #: a static query hit the witness cap
    seed: int

    @property
    def fence_count(self) -> int:
        return len(self.placements)

    def describe(self) -> str:
        fences = (", ".join(p.describe() for p in self.placements)
                  or "none")
        return (f"{self.source.value}->{self.target.value}: "
                f"{self.fence_count} fence(s) [{fences}] "
                f"({self.witnesses_checked} witnesses, "
                f"{self.dynamic_runs} runs)")


def synthesize_fences(threads: Sequence[Sequence[MemOp]],
                      target: ConsistencyModel,
                      source: ConsistencyModel = ConsistencyModel.RMO,
                      seed: int = 0,
                      max_queries: int = 200,
                      skew_retries: int = 2,
                      specs: Sequence[SpeculationMode] = SWEEP_SPECS,
                      max_witnesses: int = MAX_WITNESSES,
                      ) -> SynthesisResult:
    """Search the minimal fence set restoring ``target`` on the
    ``source`` machine.

    Seeded-deterministic: the skew-retry sets are drawn once from
    ``seed`` and the greedy passes visit candidates in a fixed order,
    so the same inputs always synthesize the same fence set.
    ``max_queries`` caps oracle queries (each one static witness sweep
    plus one dynamic machine sweep) through the shared
    :class:`~repro.verification.minimize.Budget`; a refused query
    rejects the candidate reduction, so exhaustion can only leave
    *extra* fences, never certify an unsound set.
    """
    ir = tuple(tuple(ops) for ops in threads)
    n_threads = len(ir)
    rng = random.Random(seed)
    # Base grid: unskewed plus one fixed stagger; retries add seeded
    # extra timings so noise gets more chances to refute a reduction.
    skew_sets = [tuple(0 for _ in range(n_threads)),
                 tuple(SKEW_CHOICES[(tid + 1) % len(SKEW_CHOICES)]
                       for tid in range(n_threads))]
    for _ in range(skew_retries):
        skew_sets.append(tuple(rng.choice(SKEW_CHOICES)
                               for _ in range(n_threads)))
    stats = OracleStats()
    budget = Budget(max_queries)

    def sufficient(placements: Tuple[FencePlacement, ...]) -> bool:
        if not budget.spend():
            return False
        fenced = insert_fences(ir, placements)
        if static_counterexample(fenced, source, target,
                                 max_witnesses=max_witnesses,
                                 stats=stats) is not None:
            return False
        return dynamic_counterexample(
            fenced, source, target, specs=specs, skew_sets=skew_sets,
            stats=stats) is None

    def result(placements: Tuple[FencePlacement, ...],
               ok: bool, gaps: int) -> SynthesisResult:
        return SynthesisResult(
            threads=ir, source=source, target=target,
            placements=placements, sufficient=ok, candidate_gaps=gaps,
            oracle_queries=budget.runs, static_checks=stats.static_checks,
            witnesses_checked=stats.witnesses_checked,
            dynamic_runs=stats.dynamic_runs, capped=stats.capped,
            seed=seed)

    gaps = fence_gaps(ir)
    if sufficient(()):
        # Already strong enough (e.g. SB targeting TSO): nothing to add.
        return result((), True, len(gaps))
    full = tuple(FencePlacement(tid, gap, FenceKind.FULL)
                 for tid, gap in gaps)
    if not sufficient(full):
        # Not fixable by fencing (or the budget refused the very first
        # query): report the full set as insufficient rather than guess.
        return result(full, False, len(gaps))

    def drop_pass(state: Tuple[FencePlacement, ...]):
        for i in range(len(state) - 1, -1, -1):
            def edit(s, i=i):
                return s[:i] + s[i + 1:] if i < len(s) else None
            yield edit

    def weaken_pass(state: Tuple[FencePlacement, ...]):
        for i in range(len(state) - 1, -1, -1):
            for kind in WEAKEN_LADDER:
                def edit(s, i=i, kind=kind):
                    # Only FULL fences weaken; the directional kinds
                    # are mutually incomparable.
                    if i >= len(s) or s[i].kind is not FenceKind.FULL:
                        return None
                    return s[:i] + (s[i]._replace(kind=kind),) + s[i + 1:]
                yield edit

    def keep(candidate: Tuple[FencePlacement, ...]
             ) -> Optional[Tuple[FencePlacement, ...]]:
        return candidate if sufficient(candidate) else None

    final = minimize(full, (drop_pass, weaken_pass), keep, budget)
    # Every adopted state passed the oracle, and `full` did too, so the
    # fixpoint is confirmed-sufficient even if the budget ran dry.
    return result(final, True, len(gaps))


# ----------------------------------------------------------- cycle cost

def fence_cost(threads: Sequence[Sequence[MemOp]],
               placements: Sequence[FencePlacement] = (),
               spec: SpeculationMode = SpeculationMode.NONE,
               source: ConsistencyModel = ConsistencyModel.RMO,
               skews: Sequence[int] = ()) -> int:
    """Cycles to run the (fenced) program on the ``source`` machine.

    The E13 experiment's measuring stick: the same synthesized fence
    set costs a store-buffer drain per StoreLoad/FULL fence with
    speculation off, and close to nothing with InvisiFence speculating
    through it -- the paper's headline read from the fence side.
    """
    ir = insert_fences(threads, placements)
    programs = compile_litmus_ops(ir, skews=skews or None, name="cost")
    config = fuzz_config(len(ir), source, spec)
    system = System(config, programs)
    system.run(check_invariants=True, max_cycles=FUZZ_MAX_CYCLES)
    return SystemResult(system).cycles
