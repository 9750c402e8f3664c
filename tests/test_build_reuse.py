"""A leak oracle for the build products fuzz campaigns and sweep plans
share.

Within a process, litmus compiles, fuzz configs, standard suites, each
program's decode data and point digest, each component's stat names
and every assembled instruction are built once and shared by every
case or plan that needs them.  A case builds its own ``System`` unless
its TSO/RMO twin's finished run is held for it
(``tests/test_fuzz_twins.py``).  These tests check that sharing them is
invisible: a case gives the same result whether its build products are
warm or freshly built, whatever ran before it, and whether its cores
run shared instruction objects or private copies; a plan mutated after
planning changes no later plan; and the instruction intern table holds
nothing that no program holds.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import replace

import pytest

import repro.coherence.l1 as l1_module
import repro.core.invisifence as invisifence_module
import repro.cpu.core as core_module
import repro.isa.program as program_module
import repro.workloads.randmix as randmix
import repro.workloads.suite as suite_module
from repro.harness.experiments import e1_plan, e2_plan
from repro.harness.parallel import SweepScheduler, result_fingerprint
from repro.isa import Assembler, Opcode
from repro.isa.interpreter import ReferenceInterpreter
from repro.sim.config import SpeculationConfig, SpeculationMode
from repro.system import System
from repro.verification import fuzz
from repro.verification.checker import ConsistencyViolation
from repro.workloads.randmix import compile_litmus_ops, random_litmus_ops
from repro.workloads.suite import standard_suite
from tests.conftest import small_config
from tests.test_fuzz_goldens import fuzz_golden_cases, golden_points, observe

#: Every fifth pinned case: all four programs, both plans.
_SAMPLE = fuzz_golden_cases()[::5]


def clear_build_memos() -> None:
    """Forget every build product a process shares between cases."""
    randmix._compile_litmus.cache_clear()
    suite_module._build_suite.cache_clear()
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
    """A loop span (trace-compiled) and a straight-line run (dispatched
    per instruction), around memory operations."""
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


def _private_copy(program):
    """An equal program sharing no instruction object with ``program``."""
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program
    assert not {id(i) for i in copy} & {id(i) for i in program}
    return copy


def test_equal_programs_assembled_apart_share_instruction_objects():
    first, second = _span_program(), _span_program()
    assert first is not second and first.instructions is not second.instructions
    assert all(a is b for a, b in zip(first, second))
    # Equal instructions within one program are one object too.
    asm = Assembler("twice")
    asm.li(1, 5).li(2, 5).li(1, 5)
    asm.label("top").bne(1, 0, "top").bne(1, 0, "top")
    program = asm.build()
    assert program[0] is program[2] and program[0] is not program[1]
    assert program[3] is program[4] and program[3].target == 3
    # Across plans: a rebuilt suite's programs share the first build's.
    old = standard_suite(2, 0.1)["locks-tas"].programs
    clear_build_memos()
    new = standard_suite(2, 0.1)["locks-tas"].programs
    assert new[0] is not old[0]
    assert [p.instructions for p in new] == [p.instructions for p in old]
    assert all(a is b for p, q in zip(old, new) for a, b in zip(p, q))


@pytest.mark.parametrize("mode", [SpeculationMode.NONE,
                                  SpeculationMode.ON_DEMAND,
                                  SpeculationMode.CONTINUOUS])
def test_cores_sharing_instructions_match_private_copies(mode):
    config = replace(small_config(2),
                     speculation=SpeculationConfig(mode=mode))

    def run(programs):
        result = System(config, programs).run()
        return (result_fingerprint(result), result.events, result.cycles,
                result.fused_instructions())

    shared = _span_program()
    assert [(s.start, s.stop)
            for s in core_module.superblock_spans(shared)] == [(3, 7)]
    private = run([_private_copy(shared), _private_copy(shared)])
    assert run([shared, shared]) == private
    assert run([shared, _span_program()]) == private
    assert run([shared, shared]) == private  # and again, plans warm
    if mode is not SpeculationMode.CONTINUOUS:
        assert private[3] > 0  # the spans really ran fused


def test_intern_table_forgets_what_no_program_holds():
    # An E11-style campaign: fresh random litmus programs, compiled,
    # simulated and checked one after another.
    clear_build_memos()
    gc.collect()
    before = set(program_module._interned.keys())
    for seed in range(randmix.LITMUS_MEMO_SIZE + 8):
        case = fuzz.FuzzCase(threads=tuple(map(tuple, random_litmus_ops(
                                 2, 8, seed=10_000 + seed))),
                             model=fuzz.ConsistencyModel.TSO,
                             spec=SpeculationMode.ON_DEMAND, seed=seed)
        fuzz.execute_case(case)
    assert set(program_module._interned.keys()) - before  # it grew
    clear_build_memos()
    gc.collect()
    assert set(program_module._interned.keys()) <= before
    # One program alone: its unique instruction goes with it, by
    # reference counting.
    program = Assembler("unique").li(1, 0x5EED_1234).build()
    key = (Opcode.LI.value, 1, 0, 0, 0, 0x5EED_1234, None, None)
    assert program_module._interned[key] is program[0]
    del program
    assert key not in program_module._interned


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


# ------------------------------------------------------------------ plans

def _reject(result) -> None:
    raise AssertionError("a replaced validate")


#: Ways a caller can change a workload after planning.
_PLAN_MUTATIONS = {
    "append-program": lambda w: w.programs.append(w.programs[0]),
    "write-memory": lambda w: w.initial_memory.__setitem__(0x1_0000, 7),
    "reassign-memory": lambda w: setattr(w, "initial_memory", {0x1_0000: 7}),
    "reassign-validate": lambda w: setattr(w, "validate", _reject),
}


def _workload_view(workload) -> tuple:
    """Everything of a workload that a point runs or checks with."""
    return (workload.name, tuple(map(id, workload.programs)),
            sorted(workload.initial_memory.items()), workload.validate)


def _plan_view(specs) -> list:
    return [(spec.label, spec.fingerprint(), _workload_view(spec.workload))
            for spec in specs]


def _mutate_plan(specs, mutate) -> None:
    for workload in {id(s.workload): s.workload for s in specs}.values():
        mutate(workload)


@pytest.mark.parametrize("mutation", sorted(_PLAN_MUTATIONS))
def test_a_mutated_suite_does_not_reach_a_later_call(mutation):
    clear_build_memos()
    first = standard_suite(2, 0.1)
    before = {name: _workload_view(w) for name, w in first.items()}
    for workload in first.values():
        _PLAN_MUTATIONS[mutation](workload)
    assert {name: _workload_view(w) for name, w in first.items()} != before
    again = standard_suite(2, 0.1)
    assert {name: _workload_view(w) for name, w in again.items()} == before
    assert all(again[name] is not first[name] for name in first)


@pytest.mark.parametrize("mutation", sorted(_PLAN_MUTATIONS))
def test_a_mutated_plan_does_not_reach_another_experiments_plan(mutation):
    clear_build_memos()
    expected = _plan_view(e2_plan(n_cores=2, scale=0.1))
    e1 = e1_plan(n_cores=2, scale=0.1)
    before = _plan_view(e1)
    _mutate_plan(e1, _PLAN_MUTATIONS[mutation])
    assert _plan_view(e1) != before
    assert _plan_view(e2_plan(n_cores=2, scale=0.1)) == expected
    assert _plan_view(e1_plan(n_cores=2, scale=0.1)) == before


def test_shared_program_labels_are_read_only():
    clear_build_memos()
    program = standard_suite(2, 0.1)["locks-tas"].programs[0]
    labels, listing = dict(program.labels), program.listing()
    with pytest.raises(TypeError):
        program.labels["injected"] = 0
    again = standard_suite(2, 0.1)["locks-tas"].programs[0]
    assert again is program
    assert dict(again.labels) == labels and "injected" not in again.labels
    assert again.listing() == listing
    for copied in (pickle.loads(pickle.dumps(program)), replace(program)):
        assert copied == program and copied.listing() == listing
        with pytest.raises(TypeError):
            copied.labels["injected"] = 0


def _sweep_fingerprints(exp_id, specs) -> dict:
    scheduler = SweepScheduler(jobs=1)
    scheduler.add(exp_id, specs)
    scheduler.run()
    return {f"{exp_id}/{label}": result_fingerprint(result)
            for label, result in scheduler.results_for(exp_id).items()}


def test_warm_suite_memo_gives_fresh_build_results():
    # Cold: each plan builds its own suite, as every plan did before
    # suites were shared.  Warm: both plans reuse the suite, and its
    # programs' decode data, from the cold pass.
    cold = {}
    for exp_id, plan in (("E1", e1_plan), ("E2", e2_plan)):
        clear_build_memos()
        cold.update(_sweep_fingerprints(exp_id, plan(n_cores=2, scale=0.1)))
    warm = {}
    for exp_id, plan in (("E1", e1_plan), ("E2", e2_plan)):
        warm.update(_sweep_fingerprints(exp_id, plan(n_cores=2, scale=0.1)))
    assert len(warm) == 21 + 42
    assert warm == cold


def test_suites_are_shared_but_every_call_gets_its_own_shells():
    first = standard_suite(2, 0.1)
    second = standard_suite(2, scale=0.1)
    assert first is not second and list(first) == list(second)
    for name, workload in first.items():
        other = second[name]
        assert workload is not other
        assert workload.programs is not other.programs
        assert workload.initial_memory is not other.initial_memory
        assert all(a is b for a, b in zip(workload.programs, other.programs))
        assert workload.validate is other.validate


def test_suite_memo_is_bounded_and_cleared_with_the_others():
    clear_build_memos()
    first = standard_suite(2, 0.1)
    for k in range(1, suite_module.SUITE_MEMO_SIZE + 3):
        standard_suite(2, 0.1 + k / 100)
    info = suite_module._build_suite.cache_info()
    assert info.maxsize == suite_module.SUITE_MEMO_SIZE
    assert info.currsize == suite_module.SUITE_MEMO_SIZE
    again = standard_suite(2, 0.1)  # evicted, rebuilt
    assert again["locks-tas"].programs[0] is not first["locks-tas"].programs[0]
    clear_build_memos()
    assert suite_module._build_suite.cache_info().currsize == 0
