"""The one-pass checker reaches the same outcome as the checker it
replaced.

``tests/reference_checker.py`` is the consistency checker as it stood
before ``repro.verification.checker`` and ``repro.verification.ordering``
derived each recording's relations once; it shares no code with them.
Every comparison here runs both on the same input and requires the same
outcome: an equal report, or an exception of the same type with the
same message -- so the same first violation and the same rendered
cycle.  The inputs:

* every check of a seeded campaign shaped like perfbench's
  ``verify-campaign`` (2-thread programs x model x speculation mode x 2
  skews x {fault-free, drop-retry}), RMO cases served from their TSO
  twins' runs;
* the fuzzer's bug injections under every model;
* every witness log :func:`enumerate_witness_logs` yields for the
  canonical litmus shapes, bare and with each fence kind in every gap;
* seeded mutants of the campaign's recordings (:func:`mutant`).

``benchmarks/test_checker_oracle_deep.py`` runs the same comparison
over ten seeds.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import pytest

from repro.faults.plan import fault_scenarios
from repro.isa.instructions import FenceKind
from repro.sim.config import ConsistencyModel
from repro.verification import checker, fuzz, ordering
from repro.verification.recorder import (
    AccessKind,
    AccessRecord,
    ExecutionRecorder,
    FenceRecord,
)
from repro.verification.synth import enumerate_witness_logs
from repro.workloads.litmus import canonical_litmus_ir
from repro.workloads.randmix import (
    FencePlacement,
    fence_gaps,
    insert_fences,
    random_litmus_ops,
)
from tests import reference_checker as reference

MODELS = tuple(ConsistencyModel)

#: name -> (checker under test, reference); each takes (recorder, initial)
COHERENCE_CHECKS = {
    "check_read_provenance": (checker.check_read_provenance,
                              reference.check_read_provenance),
    "check_per_location_coherence": (
        checker.check_per_location_coherence,
        reference.check_per_location_coherence),
    "check_rmw_atomicity": (checker.check_rmw_atomicity,
                            reference.check_rmw_atomicity),
    "check_forwarding": (checker.check_forwarding,
                         reference.check_forwarding),
}

Recording = Tuple[List[AccessRecord], List[FenceRecord], int]


def outcome(check, *args):
    """``check(*args)``'s report, or its exception's type name and
    message; an ordering report as a tuple of its fields."""
    try:
        result = check(*args)
    except Exception as exc:  # any difference is the finding
        return (type(exc).__name__, str(exc))
    if dataclasses.is_dataclass(result):
        return dataclasses.astuple(result)
    return result


def violated(result) -> bool:
    return isinstance(result, tuple) and isinstance(result[0], str)


def recorder_of(recording: Recording) -> ExecutionRecorder:
    records, fences, discarded = recording
    recorder = ExecutionRecorder()
    recorder.committed = list(records)
    recorder.fences = list(fences)
    recorder.discarded = discarded
    return recorder


def compare(recording: Recording, model: Optional[ConsistencyModel],
            initial: Optional[Dict[int, int]] = None):
    """``check_execution``'s outcome on ``recording``, required equal
    from both checkers; each gets a recorder of its own."""
    ours = outcome(checker.check_execution, recorder_of(recording),
                   initial, model)
    theirs = outcome(reference.check_execution, recorder_of(recording),
                     initial, model)
    if isinstance(theirs, dict) and "ordering_locations_skipped" in theirs:
        # The reference counts the skipped locations twice; the new
        # report carries the count once.
        theirs = dict(theirs)
        assert theirs.pop("ordering_locations_skipped") == \
            theirs["locations_skipped"], (recording, model, initial)
    assert ours == theirs, (recording, model, initial)
    return ours


def compare_ordering(recording: Recording, model: ConsistencyModel,
                     initial: Optional[Dict[int, int]] = None):
    ours = outcome(ordering.check_model_ordering, recorder_of(recording),
                   model, initial)
    theirs = outcome(reference.check_model_ordering,
                     recorder_of(recording), model, initial)
    assert ours == theirs, (recording, model, initial)
    return ours


def compare_each_axiom(recording: Recording,
                       initial: Optional[Dict[int, int]] = None) -> None:
    """Every public check, one at a time, required equal from both."""
    for name, (ours, theirs) in COHERENCE_CHECKS.items():
        assert (outcome(ours, recorder_of(recording), initial)
                == outcome(theirs, recorder_of(recording), initial)), (
                    name, recording, initial)
    for model in MODELS:
        compare_ordering(recording, model, initial)


# ------------------------------------------------------------- campaigns

def campaign_cases(seed: int, n_programs: int, ops_per_thread: int = 8,
                   faults: bool = True, inject: Optional[str] = None,
                   ) -> Iterator[fuzz.FuzzCase]:
    """Every case of a seeded campaign shaped like perfbench's
    ``verify-campaign``, in its order: each 2-thread program under every
    model x speculation mode x 2 drawn skews x {fault-free, E12's
    drop-retry plan reseeded per run}.  Without ``faults`` these are
    the cases of ``fuzz_sweep(n_programs, seed, ops_per_thread=...)``."""
    rng = random.Random(seed)
    drop_retry = fault_scenarios(seed=seed)["drop-retry"]
    for _ in range(n_programs):
        prog_seed = rng.randrange(2 ** 31)
        threads = tuple(tuple(ops) for ops in random_litmus_ops(
            2, ops_per_thread, seed=prog_seed))
        skew_sets = [tuple(rng.choice(fuzz.SKEW_CHOICES) for _ in range(2))
                     for _ in range(2)]
        for model in MODELS:
            for si, spec in enumerate(fuzz.SWEEP_SPECS):
                plans = (None, dataclasses.replace(
                    drop_retry, seed=(prog_seed * 31 + si) & 0x7FFFFFFF))
                for skews in skew_sets:
                    for plan in plans if faults else (None,):
                        yield fuzz.FuzzCase(
                            threads=threads, model=model, spec=spec,
                            skews=skews, seed=prog_seed, inject=inject,
                            fault_plan=plan)


def recorded_checks(cases) -> List[Tuple[ConsistencyModel,
                                         ExecutionRecorder]]:
    """Run ``cases`` through ``execute_case`` and return every
    ``(model, recorder)`` its checker was handed; a violation (an
    injected bug) ends only its own case."""
    seen = []
    real = fuzz.check_execution

    def capture(recorder, initial=None, model=None):
        seen.append((model, recorder))
        return real(recorder, initial, model)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzz, "check_execution", capture)
        for case in cases:
            try:
                fuzz.execute_case(case)
            except checker.ConsistencyViolation:
                pass
    return seen


def recording(recorder: ExecutionRecorder) -> Recording:
    assert recorder.pending_count == 0
    return (list(recorder.committed), list(recorder.fences),
            recorder.discarded)


# --------------------------------------------------------------- mutants

MUTATIONS = ("value-swap", "read-value", "apply-swap", "po-swap",
             "forwarded", "drop", "fence", "rmw", "initial")


def _values_at(records: Sequence[AccessRecord], addr: int) -> List[int]:
    """Every value written at ``addr``, and the default initial 0."""
    return [0] + [r.value if r.kind is AccessKind.WRITE else r.written
                  for r in records
                  if r.addr == addr and r.is_write]


def mutant(rng: random.Random, base: Recording
           ) -> Tuple[Recording, Optional[Dict[int, int]]]:
    """One or two seeded edits of a recording, and an initial memory.

    Edits: swap two records' values; make a read (or an RMW's load)
    return another value written at its address; swap two records'
    apply order or two same-core records' program order; flip a
    record's ``forwarded``; drop a record or a fence; insert a fence of
    any kind anywhere in a core's program order; turn a store into an
    RMW; give one written address another initial value.  One mutant
    in forty also loses a program-order index.
    """
    records, fences, discarded = list(base[0]), list(base[1]), base[2]
    initial = None
    for _ in range(rng.choice((1, 1, 2))):
        if not records:
            break
        op = rng.choice(MUTATIONS)
        i = rng.randrange(len(records))
        r = records[i]
        if op == "value-swap" and len(records) > 1:
            j = rng.randrange(len(records))
            records[i] = r._replace(value=records[j].value)
            records[j] = records[j]._replace(value=r.value)
        elif op == "read-value":
            reads = [k for k, x in enumerate(records)
                     if x.kind is not AccessKind.WRITE]
            if reads:
                k = rng.choice(reads)
                records[k] = records[k]._replace(value=rng.choice(
                    _values_at(records, records[k].addr)))
        elif op == "apply-swap" and len(records) > 1:
            j = rng.randrange(len(records))
            records[i] = r._replace(cycle=records[j].cycle,
                                    seq=records[j].seq)
            records[j] = records[j]._replace(cycle=r.cycle, seq=r.seq)
        elif op == "po-swap":
            mates = [k for k, x in enumerate(records) if x.core == r.core]
            j = rng.choice(mates)
            records[i] = r._replace(po=records[j].po)
            records[j] = records[j]._replace(po=r.po)
        elif op == "forwarded":
            records[i] = r._replace(forwarded=not r.forwarded)
        elif op == "drop":
            if fences and rng.random() < 0.25:
                del fences[rng.randrange(len(fences))]
            else:
                del records[i]
        elif op == "fence":
            top = max(x.po for x in records if x.core == r.core)
            fences.insert(rng.randrange(len(fences) + 1), FenceRecord(
                r.core, rng.randint(0, top + 1),
                rng.choice(tuple(FenceKind)), False))
        elif op == "rmw":
            stores = [k for k, x in enumerate(records)
                      if x.kind is AccessKind.WRITE]
            if stores:
                k = rng.choice(stores)
                w = records[k]
                records[k] = w._replace(
                    kind=AccessKind.RMW, written=w.value,
                    value=rng.choice(_values_at(records, w.addr)))
        elif op == "initial" and r.is_write:
            initial = {r.addr: rng.choice(
                _values_at(records, r.addr) + [99])}
    if records and rng.random() < 0.025:
        i = rng.randrange(len(records))
        records[i] = records[i]._replace(po=-1)
    return (records, fences, discarded), initial


def mutant_sweep(recordings: Sequence[Tuple[ConsistencyModel, Recording]],
                 seed: int, per_recording: int, every_model: bool = False,
                 ) -> Tuple[int, int]:
    """Compare both checkers on ``per_recording`` mutants of each
    recording: the full check under the recording's own model, and the
    ordering check alone under a rotating model (``every_model``: under
    each); ``(mutants, violating)``."""
    rng = random.Random(seed)
    count = violating = 0
    for model, base in recordings:
        for _ in range(per_recording):
            changed, initial = mutant(rng, base)
            result = compare(changed, model, initial)
            for other in (MODELS if every_model
                          else (MODELS[count % len(MODELS)],)):
                compare_ordering(changed, other, initial)
            if count % 16 == 0:
                compare_each_axiom(changed, initial)
            count += 1
            violating += violated(result)
    return count, violating


def witness_programs(threads) -> Iterator[Tuple[Tuple, ...]]:
    """``threads`` bare, then with each fence kind in every gap."""
    yield tuple(tuple(ops) for ops in threads)
    for kind in FenceKind:
        yield insert_fences(threads, [FencePlacement(t, g, kind)
                                      for t, g in fence_gaps(threads)])


# ----------------------------------------------------------------- tests

SEED = 0
N_PROGRAMS = 6


@pytest.fixture(scope="module")
def campaign():
    """``(model, recorder)`` of every check of one seeded campaign."""
    return recorded_checks(campaign_cases(SEED, N_PROGRAMS))


def test_campaign_checks_match(campaign):
    assert len(campaign) == N_PROGRAMS * 36
    # RMO cases took their TSO twins' runs: one recorder, two checks.
    assert len({id(recorder) for _, recorder in campaign}) < len(campaign)
    for model, recorder in campaign:
        report = compare(recording(recorder), model)
        assert not violated(report), report
        assert report["ordering_events"] == len(recorder)
    for model, recorder in campaign[::3]:
        compare_each_axiom(recording(recorder))


#: injection -> the models it shows under, on E11's programs below
INJECTED_UNDER = {
    "sc-load-no-drain": {ConsistencyModel.SC},
    "stale-forward": set(MODELS),
}


@pytest.mark.parametrize("inject", fuzz.INJECTIONS)
def test_injected_bugs_match_under_every_model(inject):
    # E11's injection sweep: seed 1, 10 ops per thread; its first three
    # programs show both bugs.
    checks = recorded_checks(campaign_cases(
        1, 3, ops_per_thread=10, faults=False, inject=inject))
    assert {model for model, _ in checks} == set(MODELS)
    found = set()
    for model, recorder in checks:
        if violated(compare(recording(recorder), model)):
            found.add(model)
    assert found == INJECTED_UNDER[inject]


@pytest.mark.parametrize("name", sorted(canonical_litmus_ir()))
def test_witness_logs_match(name):
    witnesses = 0
    for threads in witness_programs(canonical_litmus_ir()[name]):
        for recorder in enumerate_witness_logs(threads):
            witnesses += 1
            base = recording(recorder)
            for model in MODELS:
                compare_ordering(base, model)
                compare(base, model)
    assert witnesses


def test_mutants_match(campaign):
    recordings = [(model, recording(recorder))
                  for model, recorder in campaign]
    count, violating = mutant_sweep(recordings, SEED, per_recording=6)
    assert count == len(campaign) * 6
    assert violating >= 500, violating
