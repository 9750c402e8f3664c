"""A leak oracle for the build products fuzz campaigns share.

Within a process, litmus compiles, fuzz configs, each program's decode
data and each component's stat names are built once and shared by
every case that needs them.  A case builds its own ``System`` unless
its TSO/RMO twin's finished run is held for it
(``tests/test_fuzz_twins.py``).  These tests check that sharing them is
invisible: a case gives the same result whether its build products are
warm or freshly built, whatever ran before it, and whether its cores
run one ``Program`` object or equal copies.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

import repro.coherence.l1 as l1_module
import repro.core.invisifence as invisifence_module
import repro.cpu.core as core_module
import repro.workloads.randmix as randmix
from repro.harness.parallel import result_fingerprint
from repro.isa import Assembler
from repro.isa.interpreter import ReferenceInterpreter
from repro.sim.config import SpeculationConfig, SpeculationMode
from repro.system import System
from repro.verification import fuzz
from repro.verification.checker import ConsistencyViolation
from repro.workloads.randmix import compile_litmus_ops, random_litmus_ops
from repro.workloads.suite import standard_suite
from tests.conftest import small_config
from tests.test_fuzz_goldens import fuzz_golden_cases, golden_points, observe

#: Every fifth pinned case: all four programs, both plans, fusion on
#: and off.
_SAMPLE = fuzz_golden_cases()[::5]


def clear_build_memos() -> None:
    """Forget every build product a process shares between cases."""
    randmix._compile_litmus.cache_clear()
    fuzz.fuzz_config.cache_clear()
    fuzz._twins.clear()
    for module in (core_module, l1_module, invisifence_module):
        module._stat_names.cache_clear()


def test_sample_spans_the_golden_grid():
    labels = [label for label, _ in _SAMPLE]
    assert {label.split("/")[0] for label in labels} == {"p0", "p1", "p2", "p3"}
    assert [labels[i].split("/")[1] for i in (0, 1, 4, 7)] == [
        "sc", "sc", "tso", "rmo"]
    assert any(label.endswith("/clean") for label in labels)
    assert any(label.endswith("/drop-retry") for label in labels)


def test_warm_build_products_give_fresh_build_results():
    clear_build_memos()
    warm = {label: observe(case) for label, case in _SAMPLE}
    cold = {}
    for label, case in _SAMPLE:
        clear_build_memos()
        cold[label] = observe(case)
    assert warm == cold
    assert warm == {label: golden_points()[label] for label, _ in _SAMPLE}


def test_results_do_not_depend_on_case_order():
    # Each pass simulates every case: no run is held over from before.
    fuzz._twins.clear()
    forward = {label: observe(case) for label, case in _SAMPLE}
    fuzz._twins.clear()
    backward = {label: observe(case) for label, case in reversed(_SAMPLE)}
    assert forward == backward


_TWIN_MODEL = {fuzz.ConsistencyModel.TSO: fuzz.ConsistencyModel.RMO,
               fuzz.ConsistencyModel.RMO: fuzz.ConsistencyModel.TSO}


@pytest.mark.parametrize("index", [0, 1, 4, 7])
def test_injected_defects_do_not_outlive_their_case(index):
    # A run whose machine is patched must leave nothing behind in what
    # the next case of the same program reuses, nor be handed to its
    # clean twin: the RMO case of a TSO one (and back), or the SC case
    # itself.
    label, case = _SAMPLE[index]
    twin = replace(case, model=_TWIN_MODEL.get(case.model, case.model))
    before = observe(case)
    altered = False
    for inject in fuzz.INJECTIONS:
        fuzz._twins.clear()  # hold no clean run of this machine
        try:
            altered |= observe(replace(case, inject=inject)) != before
        except ConsistencyViolation:
            altered = True
        assert observe(twin) == before
    assert altered  # the defects really changed these runs
    assert observe(case) == before == golden_points()[label]


def _span_program():
    """A loop span (trace-compiled) and a straight-line span (the
    uncompiled fused executor), around memory operations."""
    asm = Assembler("spans")
    asm.li(1, 6).li(2, 1).li(3, 0)
    asm.label("loop")
    asm.add(3, 3, 1)
    asm.mul(4, 3, 2)
    asm.sub(1, 1, 2)
    asm.bne(1, 0, "loop")
    asm.store(3, base=0, offset=0x1000)
    asm.fence()
    asm.load(5, base=0, offset=0x1000)
    asm.li(6, 7).addi(7, 6, 5).xor(8, 7, 3)
    asm.store(8, base=0, offset=0x1040)
    return asm.halt().build()


@pytest.mark.parametrize("mode", [SpeculationMode.NONE,
                                  SpeculationMode.ON_DEMAND,
                                  SpeculationMode.CONTINUOUS])
def test_cores_sharing_one_program_object_match_equal_copies(mode):
    config = replace(small_config(2),
                     speculation=SpeculationConfig(mode=mode))

    def run(programs):
        result = System(config, programs).run()
        return (result_fingerprint(result), result.events,
                result.fused_instructions())

    shared = _span_program()
    assert {s.loops for s in core_module.superblock_spans(shared)} == {
        True, False}
    one_object = run([shared, shared])
    copies = run([_span_program(), _span_program()])
    assert one_object == copies
    assert run([shared, shared]) == copies  # and again, plans warm
    if mode is not SpeculationMode.CONTINUOUS:
        assert copies[2] > 0  # the spans really ran fused


def test_litmus_compiles_are_shared_but_every_call_gets_its_own_list():
    threads = random_litmus_ops(2, 6, seed=11)
    first = compile_litmus_ops(threads, skews=[3, 0])
    second = compile_litmus_ops(tuple(map(tuple, threads)), skews=(3, 0))
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert compile_litmus_ops(threads, skews=(3, 0)) == second
    # Every argument is part of the key.
    assert compile_litmus_ops(threads, skews=(0, 3)) != second
    assert compile_litmus_ops(threads) != second
    assert compile_litmus_ops(threads, skews=(3, 0), name="x") != second


def test_litmus_compile_memo_is_bounded():
    clear_build_memos()
    first = compile_litmus_ops(random_litmus_ops(2, 4, seed=0))
    for seed in range(1, randmix.LITMUS_MEMO_SIZE + 5):
        compile_litmus_ops(random_litmus_ops(2, 4, seed=seed))
    info = randmix._compile_litmus.cache_info()
    assert info.maxsize == randmix.LITMUS_MEMO_SIZE
    assert info.currsize == randmix.LITMUS_MEMO_SIZE
    again = compile_litmus_ops(random_litmus_ops(2, 4, seed=0))
    assert again == first and again[0] is not first[0]  # evicted, rebuilt


def test_fuzz_configs_are_shared():
    config = fuzz.fuzz_config(2, fuzz.ConsistencyModel.TSO,
                              SpeculationMode.ON_DEMAND)
    assert fuzz.fuzz_config(2, fuzz.ConsistencyModel.TSO,
                            SpeculationMode.ON_DEMAND) is config


def test_decoded_programs_pickle_like_fresh_ones():
    # Decode data cached on a program (the timing core's decode plan,
    # superblock spans, the interpreter's dispatch pairs) stays out of
    # its pickle: some of it holds functions that cannot be pickled.
    programs = standard_suite(2, 0.1)["locks-tas"].programs
    litmus = compile_litmus_ops(random_litmus_ops(2, 8, seed=5),
                                skews=(11, 0))
    fresh = [pickle.dumps(p) for p in programs + litmus]
    System(small_config(2), programs).run()
    ReferenceInterpreter(programs).run()
    System(fuzz.fuzz_config(2, fuzz.ConsistencyModel.SC,
                            SpeculationMode.ON_DEMAND), litmus).run()
    for program, data in zip(programs + litmus, fresh):
        assert program.__dict__.get("_derived")  # decode data is cached
        assert pickle.dumps(program) == data
        assert pickle.loads(data) == program
