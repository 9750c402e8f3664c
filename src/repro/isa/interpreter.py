"""Functional reference interpreter (the golden model).

Executes a set of thread programs against a flat shared memory under
sequential consistency: each step runs one whole instruction of one
thread atomically.  The interleaving is chosen by a policy (round-robin
or seeded-random).  The test suite compares the timing simulator's
architectural results against this model, and uses
:func:`explore_interleavings` to enumerate *all* SC outcomes of small
litmus programs.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.isa.instructions import (
    _ALU,
    _ATOMICS,
    _BRANCHES,
    Instruction,
    Opcode,
    REG_COUNT,
    WORD_BYTES,
)
from repro.isa.program import Program
from repro.isa import semantics

#: Opcodes a superblock may contain (see :func:`superblock_spans`):
#: pure register-to-register work plus NOP -- nothing that touches
#: memory, ordering, or the speculation machinery.
_FUSABLE = frozenset(_ALU | {Opcode.NOP})


class InterpreterError(RuntimeError):
    """Raised on illegal execution (misalignment, runaway programs...)."""


class ThreadState:
    """Architectural state of one interpreted thread."""

    __slots__ = ("tid", "program", "pc", "regs", "halted", "steps")

    def __init__(self, tid: int, program: Program):
        self.tid = tid
        self.program = program
        self.pc = 0
        self.regs = [0] * REG_COUNT
        self.halted = False
        self.steps = 0

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = semantics.to_word(value)

    def clone(self) -> "ThreadState":
        other = ThreadState(self.tid, self.program)
        other.pc = self.pc
        other.regs = list(self.regs)
        other.halted = self.halted
        other.steps = self.steps
        return other


def check_alignment(addr: int) -> None:
    if addr % WORD_BYTES != 0:
        raise InterpreterError(f"unaligned word access at address {addr:#x}")


# --------------------------------------------------------------- handlers
#
# One handler per opcode class, signature (instr, thread, memory) -> next_pc.
# The table below replaces the old per-instruction elif chain over
# Instruction's classification properties; programs additionally cache a
# pre-resolved (handler, instr) pair per slot (see _dispatch_pairs), so
# the per-step cost is a tuple index plus one call.


def _interp_alu(instr: Instruction, thread: ThreadState, memory: Dict[int, int]) -> int:
    result = semantics.alu_result(
        instr, thread.read_reg(instr.rs), thread.read_reg(instr.rt)
    )
    thread.write_reg(instr.rd, result)
    return thread.pc + 1


def _interp_load(instr: Instruction, thread: ThreadState, memory: Dict[int, int]) -> int:
    addr = semantics.effective_address(instr, thread.read_reg(instr.rs))
    check_alignment(addr)
    thread.write_reg(instr.rd, memory.get(addr, 0))
    return thread.pc + 1


def _interp_store(instr: Instruction, thread: ThreadState, memory: Dict[int, int]) -> int:
    addr = semantics.effective_address(instr, thread.read_reg(instr.rs))
    check_alignment(addr)
    memory[addr] = thread.read_reg(instr.rt)
    return thread.pc + 1


def _interp_atomic(instr: Instruction, thread: ThreadState, memory: Dict[int, int]) -> int:
    addr = semantics.effective_address(instr, thread.read_reg(instr.rs))
    check_alignment(addr)
    old = memory.get(addr, 0)
    loaded, new_value = semantics.atomic_result(
        instr, old, thread.read_reg(instr.rt), thread.read_reg(instr.ru)
    )
    thread.write_reg(instr.rd, loaded)
    if new_value is not None:
        memory[addr] = new_value
    return thread.pc + 1


def _interp_ordering(instr: Instruction, thread: ThreadState, memory: Dict[int, int]) -> int:
    return thread.pc + 1  # FENCE/NOP: ordering is trivially satisfied under SC


def _interp_branch(instr: Instruction, thread: ThreadState, memory: Dict[int, int]) -> int:
    if semantics.branch_taken(instr, thread.read_reg(instr.rs), thread.read_reg(instr.rt)):
        assert instr.target is not None, "unresolved branch target"
        return instr.target
    return thread.pc + 1


def _interp_halt(instr: Instruction, thread: ThreadState, memory: Dict[int, int]) -> int:
    thread.halted = True
    return thread.pc + 1


def _build_handlers() -> Dict[Opcode, Callable]:
    table: Dict[Opcode, Callable] = {}
    for op in Opcode:
        if op in _ALU:
            table[op] = _interp_alu
        elif op is Opcode.LOAD:
            table[op] = _interp_load
        elif op is Opcode.STORE:
            table[op] = _interp_store
        elif op in _ATOMICS:
            table[op] = _interp_atomic
        elif op is Opcode.FENCE or op is Opcode.NOP:
            table[op] = _interp_ordering
        elif op in _BRANCHES:
            table[op] = _interp_branch
        elif op is Opcode.HALT:
            table[op] = _interp_halt
        else:  # pragma: no cover - new opcodes must be classified here
            raise InterpreterError(f"unhandled opcode {op}")
    return table


#: Opcode -> handler, resolved once at import time.
_HANDLERS: Dict[Opcode, Callable] = _build_handlers()


def _dispatch_pairs(program: Program) -> Tuple[Tuple[Callable, Instruction], ...]:
    """Per-program decoded (handler, instr) pairs, cached on the program
    (see :meth:`Program.derived`)."""
    return program.derived("dispatch_pairs", _decode_pairs)


def _decode_pairs(program: Program) -> Tuple[Tuple[Callable, Instruction], ...]:
    return tuple((_HANDLERS[instr.op], instr) for instr in program.instructions)


# ----------------------------------------------------------- superblocks
#
# Trace-compilation support: a *superblock* is a maximal straight-line
# run of pure ALU/NOP instructions and branches, inside a loop, that a
# timing core compiles and executes atomically in a single event.  The
# correctness framing is the "instantaneous instruction execution"
# argument: register-to-register work never interacts with the memory
# model, so batching it is invisible as long as loads, stores, RMWs,
# fences, and HALT remain scheduling boundaries.  Detection is purely
# structural and lives here, next to the dispatch-pair decode it walks;
# the timing core compiles spans into fused closures (repro.cpu.core).


class SuperblockSpan:
    """One fusable program region: slots ``[start, stop)``.

    A span holds only *core-private* instructions -- ALU, NOP, and
    branches; loads, stores, atomics, fences, and HALT always break it.
    A conditional branch inside a span is an early exit: execution
    leaves the span at its target, having run only the prefix up to and
    including the branch.  An unconditional JMP ends the span (its
    fall-through is unreachable).  No slot after ``start`` is a branch
    target -- a jump can enter a span only at its head, so executing a
    span's register work atomically at the head preserves every possible
    control-flow path.
    """

    __slots__ = ("start", "stop")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SuperblockSpan [{self.start},{self.stop})>"


def branch_targets(program: Program) -> FrozenSet[int]:
    """Every instruction index some branch in ``program`` may jump to."""
    return frozenset(
        instr.target for instr in program.instructions
        if instr.target is not None
    )


def _loop_slots(instructions: Sequence[Instruction]) -> List[bool]:
    """Per slot: does some backward branch's range ``[target, b]`` cover it?

    One pass over the branches marks each range in a difference array,
    one prefix sum reads it back -- O(n) however many ranges overlap.
    """
    diff = [0] * (len(instructions) + 1)
    for b, instr in enumerate(instructions):
        t = instr.target
        if t is not None and t <= b:
            diff[t] += 1
            diff[b + 1] -= 1
    return [depth > 0 for depth in accumulate(diff[:-1])]


def superblock_spans(program: Program) -> Tuple[SuperblockSpan, ...]:
    """Detect every loop superblock in ``program`` (cached on the program).

    Fusion rules:

    * a span contains only core-private instructions: ALU, NOP, and
      branches -- loads, stores, atomics, fences, and HALT always break
      it (they interact with the memory system, whose event order is
      part of the simulated semantics);
    * a conditional branch may sit anywhere in the span (an early exit:
      execution leaves at its target having run only that prefix); an
      unconditional JMP ends the span, since its fall-through path is
      unreachable;
    * no slot strictly after the head may be a branch target (the head
      itself may be one: that is just an entry point);
    * spans are at least two instructions long (fusing one instruction
      buys nothing);
    * a span that can fall through never reaches the end of the program
      text, so the fall-through successor slot always exists;
    * only *loop spans* are returned: spans whose head lies inside some
      backward branch's range, a branch at slot ``b`` with target
      ``t <= b`` and ``t <= start <= b``.  Any control-flow cycle
      through a slot ``s`` contains such a branch (pc only falls
      through upward, so returning to ``s`` needs a jump from at or
      after ``s`` to at or before it).  Every other span runs at most
      once per pass through the program, apart from re-execution after
      a speculation rollback, so compiling it never pays back and its
      instructions dispatch one by one.  Straight-line code has no
      spans at all.

    Cached on the program (see :meth:`Program.derived`), so a mutated
    or rebuilt program re-detects.
    """
    return program.derived("superblock_spans", _detect_spans)


def _detect_spans(program: Program) -> Tuple[SuperblockSpan, ...]:
    instructions = program.instructions
    targets = branch_targets(program)
    in_loop = _loop_slots(instructions)
    spans = []
    n = len(instructions)
    i = 0
    while i < n:
        op = instructions[i].op
        if op not in _FUSABLE and op not in _BRANCHES:
            i += 1
            continue
        j = i
        falls_through = True
        while j < n:
            op = instructions[j].op
            if j > i and j in targets:
                break  # entry point: a jump may land here mid-span
            if op in _BRANCHES:
                j += 1
                if op is Opcode.JMP:
                    falls_through = False
                    break  # fall-through unreachable after a JMP
                continue
            if op not in _FUSABLE:
                break  # memory / fence / atomic / HALT boundary
            j += 1
        stop = j
        if in_loop[i] and stop - i >= 2 and (stop < n or not falls_through):
            spans.append(SuperblockSpan(i, stop))
        i = max(stop, i + 1)
    return tuple(spans)


def execute_instruction(
    thread: ThreadState, memory: Dict[int, int]
) -> None:
    """Execute one instruction of ``thread`` atomically against ``memory``.

    Advances the PC (following branches) and sets ``halted`` on HALT.
    """
    if thread.halted:
        raise InterpreterError(f"thread {thread.tid} already halted")
    handler, instr = _dispatch_pairs(thread.program)[thread.pc]
    thread.pc = handler(instr, thread, memory)
    thread.steps += 1


class ReferenceInterpreter:
    """Runs thread programs to completion under SC.

    Parameters
    ----------
    programs:
        One program per thread.
    initial_memory:
        Optional initial word values (addr -> value).
    policy:
        ``"round-robin"`` (default) or ``"random"``.
    seed:
        RNG seed for the random policy (determinism).
    """

    def __init__(
        self,
        programs: Sequence[Program],
        initial_memory: Optional[Dict[int, int]] = None,
        policy: str = "round-robin",
        seed: int = 1,
    ):
        if not programs:
            raise ValueError("need at least one program")
        if policy not in ("round-robin", "random"):
            raise ValueError(f"unknown policy {policy!r}")
        self.threads = [ThreadState(tid, prog) for tid, prog in enumerate(programs)]
        self.memory: Dict[int, int] = dict(initial_memory or {})
        self.policy = policy
        self._rng = random.Random(seed)
        self._rr_next = 0

    @property
    def all_halted(self) -> bool:
        return all(t.halted for t in self.threads)

    def _pick_thread(self) -> ThreadState:
        runnable = [t for t in self.threads if not t.halted]
        if self.policy == "random":
            return self._rng.choice(runnable)
        n = len(self.threads)
        for offset in range(n):
            candidate = self.threads[(self._rr_next + offset) % n]
            if not candidate.halted:
                self._rr_next = (candidate.tid + 1) % n
                return candidate
        raise InterpreterError("no runnable thread")  # pragma: no cover

    def step(self) -> bool:
        """Execute one instruction of some runnable thread.

        Returns False when every thread has halted.
        """
        if self.all_halted:
            return False
        execute_instruction(self._pick_thread(), self.memory)
        return True

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until all threads halt; returns total steps executed.

        Raises :class:`InterpreterError` if the step budget is exhausted,
        which usually indicates a livelocked synchronisation idiom (e.g.
        a spinlock whose release was forgotten).
        """
        steps = 0
        while not self.all_halted:
            self.step()
            steps += 1
            if steps > max_steps:
                raise InterpreterError(f"exceeded {max_steps} steps; livelock?")
        return steps

    def load_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)


Outcome = Tuple[int, ...]


def explore_interleavings(
    programs: Sequence[Program],
    observe: Callable[[List[ThreadState], Dict[int, int]], Outcome],
    initial_memory: Optional[Dict[int, int]] = None,
    max_steps_per_thread: int = 64,
    max_states: int = 200_000,
) -> FrozenSet[Outcome]:
    """Enumerate every SC outcome of a small multi-threaded program.

    Performs a depth-first search over all interleavings, memoising
    visited states.  ``observe`` maps a final (threads, memory) state to
    a hashable outcome tuple; the function returns the set of reachable
    outcomes.  Intended for litmus tests (a handful of instructions per
    thread); raises :class:`InterpreterError` if the state space exceeds
    ``max_states``.
    """

    def freeze(threads: List[ThreadState], memory: Dict[int, int]):
        return (
            tuple((t.pc, t.halted, tuple(t.regs)) for t in threads),
            tuple(sorted(memory.items())),
        )

    initial_threads = [ThreadState(tid, prog) for tid, prog in enumerate(programs)]
    outcomes: Set[Outcome] = set()
    visited = set()
    stack = [(initial_threads, dict(initial_memory or {}))]

    while stack:
        threads, memory = stack.pop()
        key = freeze(threads, memory)
        if key in visited:
            continue
        visited.add(key)
        if len(visited) > max_states:
            raise InterpreterError(f"interleaving exploration exceeded {max_states} states")
        runnable = [t for t in threads if not t.halted]
        if not runnable:
            outcomes.add(observe(threads, memory))
            continue
        for chosen in runnable:
            if chosen.steps >= max_steps_per_thread:
                raise InterpreterError(
                    f"thread {chosen.tid} exceeded {max_steps_per_thread} steps during "
                    "exploration; litmus programs must be loop-free or tightly bounded"
                )
            new_threads = [t.clone() for t in threads]
            new_memory = dict(memory)
            execute_instruction(new_threads[chosen.tid], new_memory)
            stack.append((new_threads, new_memory))

    return frozenset(outcomes)
