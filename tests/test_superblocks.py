"""Superblock fusion boundary cases (trace-compiled execution).

The detector (:func:`repro.isa.interpreter.superblock_spans`) may fuse
only core-private straight-line code inside a loop: every
memory/fence/RMW opcode, a branch *target*, and HALT must break a span,
a span outside every backward branch's range is not returned, and
fused dispatch must be invisible across speculation checkpoint/rollback.
These tests pin the structural rules directly and the timing-core
behaviour end to end, against runs with fusion off (the ``fusion_off``
fixture of ``tests/conftest.py``).
"""

import builtins

import pytest

from repro.cpu.core import Core, _compile_superblock, _decode_plan
from repro.harness.experiments import e9_plan
from repro.harness.parallel import result_fingerprint
from repro.isa import Assembler
from repro.isa.instructions import Opcode
from repro.isa.interpreter import _dispatch_pairs, superblock_spans
from repro.sim.config import SpeculationMode, SystemConfig
from repro.system import System


def _spans(program):
    return [(s.start, s.stop) for s in superblock_spans(program)]


def _run(config, programs, initial_memory=None):
    return System(config, programs, initial_memory).run()


# ------------------------------------------------------------- detection

class TestSpanDetection:
    def test_pure_alu_run_fuses(self):
        asm = Assembler("t").label("top").li(1, 1).li(2, 2).add(3, 1, 2)
        asm.bne(3, 0, "top").halt()
        assert _spans(asm.build()) == [(0, 4)]

    def test_branch_target_breaks_span_not_just_branch(self):
        # Slots 0-4 are straight-line ALU inside the outer loop, but
        # slot 2 is a branch target: a jump may enter mid-run, so fusion
        # must split there even though no boundary *opcode* intervenes.
        asm = Assembler("t")
        asm.label("top")
        asm.li(1, 1).li(2, 0)
        asm.label("loop")
        asm.add(2, 2, 1)
        asm.sub(3, 2, 1)
        asm.bne(2, 1, "loop")
        asm.bne(3, 0, "top")
        asm.halt()
        program = asm.build()
        assert program.labels["loop"] == 2
        assert _spans(program) == [(0, 2), (2, 6)]

    def test_span_head_may_be_a_branch_target(self):
        # The head is an entry point, not a mid-span entry: a span may
        # start at a target.
        asm = Assembler("t")
        asm.label("spin")
        asm.add(1, 1, 2)
        asm.sub(3, 1, 2)
        asm.jmp("spin")
        program = asm.build()
        assert _spans(program) == [(0, 3)]

    def test_straight_line_spans_are_not_loop_spans(self):
        # Runs split by memory ops, and a forward branch: no back edge,
        # so every run executes at most once and none is a span.
        asm = Assembler("t").li(1, 1).li(2, 2).store(1, base=2)
        asm.add(3, 1, 2).beq(3, 0, "out").sub(4, 3, 1)
        asm.label("out")
        asm.li(5, 5).li(6, 6).halt()
        assert _spans(asm.build()) == []

    def test_only_spans_in_a_back_edge_range_are_returned(self):
        # The back edge at slot 4 jumps to 0: every run whose head lies
        # in [0, 4] may run again, including one headed mid-body after a
        # load; the run after the back edge executes once.
        asm = Assembler("t")
        asm.label("top")
        asm.li(1, 1).li(2, 2)
        asm.load(3, base=2)
        asm.add(4, 3, 1).bne(4, 0, "top")
        asm.store(4, base=2)
        asm.li(5, 5).li(6, 6).halt()
        assert _spans(asm.build()) == [(0, 2), (3, 5)]

    @pytest.mark.parametrize("emit,opcode", [
        (lambda a: a.load(3, base=9), Opcode.LOAD),
        (lambda a: a.store(3, base=9), Opcode.STORE),
        (lambda a: a.swap(3, base=9, value=4), Opcode.SWAP),
        (lambda a: a.cas(3, base=9, expected=4, new=5), Opcode.CAS),
        (lambda a: a.fetch_add(3, base=9, addend=4), Opcode.FETCH_ADD),
        (lambda a: a.tas(3, base=9), Opcode.TAS),
        (lambda a: a.fence(), Opcode.FENCE),
    ], ids=lambda p: p.name if isinstance(p, Opcode) else "")
    def test_every_memory_and_fence_opcode_breaks_fusion(self, emit, opcode):
        asm = Assembler("t").label("top").li(1, 1).li(2, 2)
        emit(asm)
        asm.add(4, 1, 2).add(5, 4, 1).bne(5, 0, "top").halt()
        program = asm.build()
        assert program.instructions[2].op is opcode
        assert _spans(program) == [(0, 2), (3, 6)]

    def test_halt_breaks_fusion_and_trailing_run_needs_successor(self):
        # ALU straight into HALT: the run before HALT fuses, HALT does
        # not join it (it drains the store buffer / ends the thread).
        # The back edge after HALT puts the run inside a loop.
        asm = Assembler("t").label("top").li(1, 1).li(2, 2).halt()
        asm.jmp("top")
        assert _spans(asm.build()) == [(0, 2)]

    def test_single_instruction_program_has_no_spans(self):
        assert _spans(Assembler("t").halt().build()) == []

    def test_single_alu_instruction_is_not_fused(self):
        # Minimum span length is two: fusing one instruction buys
        # nothing and would only add dispatch indirection.
        asm = Assembler("t").label("top").li(1, 7).store(1, base=0)
        asm.bne(1, 0, "top").halt()
        assert _spans(asm.build()) == []

    def test_trailing_run_without_halt_is_still_detected(self):
        # End of text is a span boundary like any other; the assembler
        # closes the text with a HALT, so the detector does not
        # special-case a missing successor.
        asm = Assembler("t").label("top").li(1, 1).add(2, 1, 1)
        asm.bne(2, 0, "top")
        assert _spans(asm.build()) == [(0, 3)]

    def test_detection_cache_restamps_on_mutated_program(self):
        asm = Assembler("t").label("top").li(1, 1).li(2, 2).add(3, 1, 2)
        program = asm.bne(3, 0, "top").halt().build()
        first = superblock_spans(program)
        assert _spans(program) == [(0, 4)]
        # Mutate the (frozen) program the only way possible: replace the
        # instructions tuple.  The cache must re-detect, not serve spans
        # for the old text.
        trimmed = Assembler("t").li(1, 1).halt().build()
        object.__setattr__(program, "instructions", trimmed.instructions)
        assert superblock_spans(program) is not first
        assert _spans(program) == []


# ----------------------------------------------------- decode-cache stamp

def test_dispatch_pairs_cache_restamps_on_mutated_program():
    """Regression: ``_dispatch_pairs`` once cached on nothing -- a
    mutated/rebuilt ``Program`` could serve stale closures.  The cache
    is now stamped with the instructions tuple it decoded."""
    asm = Assembler("t").li(1, 4).halt()
    program = asm.build()
    stale = _dispatch_pairs(program)
    assert _dispatch_pairs(program) is stale  # cache hit on same text
    replacement = Assembler("t").store(1, base=2).halt().build()
    object.__setattr__(program, "instructions", replacement.instructions)
    fresh = _dispatch_pairs(program)
    assert fresh is not stale
    assert [instr.op for _, instr in fresh] == [Opcode.STORE, Opcode.HALT]


def test_decode_plan_cache_restamps_on_mutated_program():
    """The timing core's decode plan is cached on the program like the
    interpreter's dispatch pairs, under the same stamp."""
    asm = Assembler("t").li(1, 4).halt()
    program = asm.build()
    stale = _decode_plan(program)
    assert _decode_plan(program) is stale  # cache hit on same text
    replacement = Assembler("t").store(1, base=2).halt().build()
    object.__setattr__(program, "instructions", replacement.instructions)
    fresh = _decode_plan(program)
    assert fresh is not stale
    assert [fn for _, fn, _ in fresh] == [Core._exec_store, Core._exec_halt]
    # A machine built on the mutated program runs the new text.
    result = System(SystemConfig(n_cores=1), [program]).run()
    assert result.stats.value("core.0.stores_drained") == 1


# ----------------------------------------------------- fused execution

def _alu_loop_program():
    """A branchy, ALU-heavy single-thread program with fusable spans."""
    asm = Assembler("t")
    asm.li(1, 20).li(2, 1).li(3, 0)
    asm.label("loop")
    asm.add(3, 3, 1)
    asm.mul(4, 3, 2)
    asm.sub(1, 1, 2)
    asm.bne(1, 0, "loop")
    asm.halt()
    return asm.build()


def _unrolled_program():
    """Straight-line runs separated by stores, as the randmix and
    streaming generators emit them: no back edge anywhere."""
    asm = Assembler("t")
    for k in range(4):
        asm.li(1, k).addi(2, 1, 3).mul(3, 2, 2).store(3, base=0, offset=8 * k)
    return asm.halt().build()


def _count_compiles(monkeypatch):
    # Compiled superblocks are cached per process: start empty, so the
    # counts do not depend on which tests ran before.
    _compile_superblock.cache_clear()
    calls = []
    real = builtins.compile

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs["filename"])
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return calls


def test_straight_line_spans_never_reach_compile(monkeypatch):
    program = _unrolled_program()
    assert superblock_spans(program) == ()
    with monkeypatch.context() as patch:
        calls = _count_compiles(patch)
        system = System(SystemConfig(n_cores=2), [program, program])
    assert calls == []
    # Nothing fused: every instruction dispatches on its own.
    assert system.run().fused_blocks() == 0


def test_loop_span_is_compiled_once_for_both_cores(monkeypatch):
    program = _alu_loop_program()
    assert _spans(program) == [(3, 7)]
    with monkeypatch.context() as patch:
        calls = _count_compiles(patch)
        system = System(SystemConfig(n_cores=2), [program, program])
    assert calls == ["<superblock @3>"]
    # One code object, two functions: every binding stays per core.
    first, second = (core._decoded[3][0] for core in system.cores)
    assert first is not second
    assert first.__code__ is second.__code__
    for fused, core in ((first, system.cores[0]), (second, system.cores[1])):
        assert [d for d in fused.__defaults__ if isinstance(d, Core)] == [core]


def _mid_exit_loop_program():
    """Loop span [3, 8): the BNE at slot 5 leaves mid-span on odd
    counts and falls through on even ones; the closing BNE is taken
    until the count reaches zero, then the span falls through."""
    asm = Assembler("t")
    asm.li(1, 6).li(4, 1).li(2, 0)
    asm.label("loop")
    asm.addi(1, 1, -1)
    asm.and_(3, 1, 4)
    asm.bne(3, 0, "loop")
    asm.addi(2, 2, 10)
    asm.bne(1, 0, "loop")
    asm.halt()
    return asm.build()


def _head_exit_loop_program():
    """Loop span [2, 6) headed by a BEQ that is taken only on the last
    visit: that dispatch retires one instruction and schedules its
    successor directly, with no relay."""
    asm = Assembler("t")
    asm.li(1, 3).li(2, 0)
    asm.label("loop")
    asm.beq(1, 0, "done")
    asm.addi(2, 2, 7)
    asm.addi(1, 1, -1)
    asm.jmp("loop")
    asm.label("done")
    asm.halt()
    return asm.build()


def _r0_write_program():
    """A loop span that writes r0 and reads it back, twice: the writes
    are discarded, so r0 must still read 0."""
    asm = Assembler("t")
    asm.li(1, 9).li(3, 2)
    asm.label("loop")
    asm.addi(0, 1, 5).add(2, 0, 1).li(0, 3).add(2, 2, 0)
    asm.addi(3, 3, -1).bne(3, 0, "loop")
    return asm.halt().build()


@pytest.mark.parametrize("mode", [SpeculationMode.NONE,
                                  SpeculationMode.ON_DEMAND],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("build,spans,fused,r2", [
    # Odd counts exit at slot 5 (3 x 3 retired) and even counts run the
    # whole span (3 x 5).
    (_mid_exit_loop_program, [(3, 8)], (24, 6), 30),
    # Three full passes (3 x 4), one head exit (1).
    (_head_exit_loop_program, [(2, 6)], (13, 4), 21),
    # Two full passes (2 x 6).
    (_r0_write_program, [(2, 8)], (12, 2), 9),
], ids=["mid-span-exit", "head-branch-exit", "r0-writes"])
def test_hand_written_spans_match_unfused(build, spans, fused, r2, mode,
                                          fusion_off):
    program = build()
    assert _spans(program) == spans
    config = SystemConfig(n_cores=1).with_speculation(mode)
    with fusion_off():
        plain = _run(config, [program])
    assert plain.cores[0].registers[2] == r2
    result = _run(config, [program])
    assert result.cores[0].registers == plain.cores[0].registers
    assert (result.cycles, result.events) == (plain.cycles, plain.events)
    assert result_fingerprint(result) == result_fingerprint(plain)
    assert (result.fused_instructions(), result.fused_blocks()) == fused


@pytest.mark.parametrize("window", [5, 1000])
def test_fused_spans_tick_the_conservative_window_per_instruction(
        window, fusion_off):
    """An idle speculation-capable core counts its conservative window
    down once per retired instruction; a fused dispatch must take off
    its executed count, clamped at zero."""
    program = _mid_exit_loop_program()
    config = SystemConfig(n_cores=1).with_speculation(
        SpeculationMode.ON_DEMAND)

    def remaining():
        system = System(config, [program])
        system.cores[0].spec._conservative_remaining = window
        result = system.run()
        return system.cores[0].spec._conservative_remaining, result

    with fusion_off():
        expected, plain = remaining()
    assert expected == max(0, window - plain.cores[0].instructions)
    left, result = remaining()
    assert result.fused_blocks() > 0
    assert left == expected


def test_fused_execution_matches_unfused_registers_and_cycles(fusion_off):
    program = _alu_loop_program()
    assert superblock_spans(program), "expected fusable spans"
    config = SystemConfig(n_cores=1)
    fused = _run(config, [program])
    with fusion_off():
        plain = _run(config, [program])
    assert fused.cores[0].registers == plain.cores[0].registers
    assert fused.cycles == plain.cycles
    assert fused.events == plain.events
    assert fused.fused_instructions() > 0


def test_fusion_off_fails_a_run_that_still_fuses(fusion_off):
    # Built before fusion is turned off, so its loop span is compiled:
    # the fixture must refuse the run instead of calling it unfused.
    system = System(SystemConfig(n_cores=1), [_alu_loop_program()])
    with fusion_off(), pytest.raises(AssertionError,
                                     match="fusion was not off"):
        system.run()


def test_single_instruction_program_runs_with_superblocks_on():
    result = _run(SystemConfig(n_cores=1), [Assembler("t").halt().build()])
    # HALT retires no instruction; the run must simply terminate with
    # nothing fused and nothing left pending.
    assert result.events == 1
    assert result.cores[0].instructions == 0
    assert result.fused_instructions() == 0


def test_fusion_counters_reconcile_with_span_structure():
    program = _alu_loop_program()
    result = _run(SystemConfig(n_cores=1), [program])
    # Every fused dispatch retires at least two instructions, and fused
    # retirement can never exceed total retirement.
    assert result.mean_superblock_length() >= 2.0
    assert 0 < result.fused_instructions() <= result.cores[0].instructions


def test_superblocks_invisible_across_speculation_rollback(fusion_off):
    """Rollback safety: the 4-core barrier-stencil InvisiFence point
    takes at least one speculation violation (checkpoint + rollback),
    and fusion must leave its entire outcome byte-identical."""
    spec = next(s for s in e9_plan(core_counts=(4,), scale=0.2)
                if s.label == "4|barrier-stencil|if-sc")
    fused = _run(spec.config, spec.workload.programs,
                 spec.workload.initial_memory)
    with fusion_off():
        plain = _run(spec.config, spec.workload.programs,
                     spec.workload.initial_memory)
    assert fused.fused_instructions() > 0
    violations = sum(v for k, v in fused.stats.snapshot().items()
                     if k.endswith(".violations"))
    assert violations > 0, "expected at least one rollback on this point"
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.events == plain.events
    assert fused.cycles == plain.cycles
