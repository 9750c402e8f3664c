"""Distributed-protocol workloads: election, gossip, replicated log.

The chaos-layer counterpart of the microbenchmark suite: protocol
skeletons that are *supposed* to survive node faults, written against
the ``emit_*`` primitives so they stress atomics (TAS/CAS/fetch-add),
fences, and the store buffer in patterns the lock/barrier workloads
cannot.  Each factory pairs its programs with a
safety checker from :mod:`repro.verification.protocols` via the
workload's ``validate`` hook, and exposes the checker plus its layout
binding as ``workload.checker`` / ``workload.protocol_params`` so tests
and E14 can re-run properties directly.

Every spin in this file is **bounded** (bounded TAS budgets, bounded
observation polls) -- deliberately.  An unbounded spin on state owned by
a crash-stopped core never terminates, and because spinning *commits*
instructions it is invisible to the watchdog's no-commit livelock
detector.  Bounded retries turn a dead peer into an observable failed
acquisition/observation the protocol handles, which is exactly how
fault-tolerant protocols are written on real machines.

Crash-atomicity idiom (used by the replicated log, worth stating once):
on this machine the store buffer drains FIFO, so a store's visibility
implies the visibility of every program-order-earlier store -- even
across a fail-stop, which freezes the buffer as-is.  Ordering
``log write -> index bump -> lock release -> journal claim`` therefore
guarantees a visible release implies the critical section fully landed,
and a visible journal claim implies its log write did.
"""

from __future__ import annotations

from repro.isa.instructions import FenceKind
from repro.isa.program import Assembler
from repro.verification.protocols import (check_election_safety,
                                          check_gossip_convergence,
                                          check_log_agreement)
from repro.workloads.base import Layout, Workload
from repro.workloads.primitives import emit_release, emit_tas_try_acquire

#: Bounded observation poll used by the election observers.
ELECTION_POLL_TRIES = 12


def leader_election(n_threads: int = 4, terms: int = 4,
                    think: int = 60) -> Workload:
    """Bully-flavored, term-based leader election, decided by CAS.

    Per term, every core announces candidacy with an atomic fetch-add
    into the term's bitmap, fences, and reads the bitmap back; a core
    that sees a higher-id candidate defers (bully deference -- the
    filter is heuristic, racy by design).  Non-deferring cores race a
    CAS on the term's claim word; the CAS is the actual safety
    mechanism, so *at most one* core can ever win a term regardless of
    how the filter races.  Winners record the win privately; everyone
    then polls the claim word (bounded) and records the leader they
    observed.  ``think`` cycles of staggered compute space the terms so
    chaos windows land mid-protocol.
    """
    layout = Layout()
    claims = layout.padded_array(terms)
    bully = layout.padded_array(terms)
    wins = [layout.array(terms) for _ in range(n_threads)]
    views = [layout.array(terms) for _ in range(n_threads)]
    initial = {addr: 0 for addr in claims + bully}
    for tid in range(n_threads):
        for t in range(terms):
            initial[wins[tid] + 8 * t] = 0
            initial[views[tid] + 8 * t] = 0

    programs = []
    for tid in range(n_threads):
        asm = Assembler()
        asm.li(24, 1)
        asm.li(3, 1 << tid)        # my candidacy bit
        asm.li(6, tid + 1)         # my claim value
        asm.li(14, wins[tid])
        asm.li(15, views[tid])
        for t in range(terms):
            defer = f"defer_{tid}_{t}"
            poll = f"poll_{tid}_{t}"
            seen = f"seen_{tid}_{t}"
            asm.li(1, bully[t])
            asm.li(2, claims[t])
            asm.fetch_add(25, base=1, addend=3)       # announce candidacy
            asm.fence(FenceKind.FULL)
            asm.load(4, base=1)                       # who else is running?
            asm.slti(5, 4, 1 << (tid + 1))            # 1 iff nobody higher
            asm.beq(5, 0, defer)
            asm.cas(7, base=2, expected=0, new=6)     # race for the term
            asm.bne(7, 0, defer)                      # lost: old value != 0
            asm.store(24, base=14, offset=8 * t)      # record my win
            asm.label(defer)
            asm.li(9, ELECTION_POLL_TRIES)
            asm.label(poll)
            asm.load(10, base=2)
            asm.bne(10, 0, seen)
            asm.sub(9, 9, 24)
            asm.bne(9, 0, poll)
            asm.label(seen)
            asm.store(10, base=15, offset=8 * t)      # observed leader
            asm.fence(FenceKind.FULL)
            asm.exec_(think + 17 * tid)               # staggered think time
        programs.append(asm.build())

    params = dict(terms=terms, n_threads=n_threads, claims=claims,
                  bully=bully, wins=wins, views=views)
    workload = Workload(
        name=f"leader-election-{n_threads}x{terms}",
        programs=programs,
        initial_memory=initial,
        description=(f"{n_threads} cores electing a leader for {terms} "
                     "terms: fetch-add candidacy, bully deference, CAS "
                     "arbitration, bounded observation polls"),
        validate=lambda result: check_election_safety(result, **params),
    )
    workload.checker = check_election_safety
    workload.protocol_params = params
    return workload


def gossip(n_threads: int = 4, repeat: int = 2, think: int = 40) -> Workload:
    """Epidemic rumor dissemination: pull-merge rounds over a ring.

    Each core owns a single-writer rumor-set word seeded with its own
    rumor bit.  Round ``r`` pulls the set of peer ``(tid + r) % n``, ORs
    it in, republishes, and bumps a heartbeat counter (store-buffer
    pressure: two publishes per round, ordered by a StoreStore fence).
    ``repeat`` full ring sweeps are run; any single complete sweep
    already reaches the union of *initial* rumors -- sets are monotone
    and seeded in memory, so even a peer that crashed before its first
    instruction still contributes its rumor -- which is why convergence
    of every live core is a hard obligation, not a probabilistic one.
    """
    layout = Layout()
    known = layout.padded_array(n_threads)
    beats = layout.padded_array(n_threads)
    rumors = [1 << tid for tid in range(n_threads)]
    initial = {known[tid]: rumors[tid] for tid in range(n_threads)}
    initial.update({beats[tid]: 0 for tid in range(n_threads)})
    rounds = repeat * (n_threads - 1)

    programs = []
    for tid in range(n_threads):
        asm = Assembler()
        asm.li(24, 1)
        asm.li(1, known[tid])
        asm.li(2, beats[tid])
        asm.li(3, 0)                   # heartbeat count
        asm.load(4, base=1)            # own set (= my initial rumor)
        for sweep in range(repeat):
            for step in range(1, n_threads):
                peer = (tid + step) % n_threads
                asm.li(5, known[peer])
                asm.load(6, base=5)            # pull the peer's set
                asm.or_(4, 4, 6)
                asm.store(4, base=1)           # republish mine
                asm.add(3, 3, 24)
                asm.store(3, base=2)           # heartbeat
                asm.fence(FenceKind.STORE_STORE)
                asm.exec_(think + 11 * tid)    # staggered think time
        asm.fence(FenceKind.FULL)
        programs.append(asm.build())

    params = dict(n_threads=n_threads, rounds=rounds, known=known,
                  beats=beats, rumors=rumors)
    workload = Workload(
        name=f"gossip-{n_threads}x{rounds}",
        programs=programs,
        initial_memory=initial,
        description=(f"{n_threads} cores gossiping over a ring for "
                     f"{rounds} pull-merge rounds with heartbeats"),
        validate=lambda result: check_gossip_convergence(result, **params),
    )
    workload.checker = check_gossip_convergence
    workload.protocol_params = params
    return workload


def replicated_log(n_threads: int = 4, appends: int = 3, tries: int = 8,
                   think: int = 30) -> Workload:
    """Replicated-log commit: lock-guarded appends with private journals.

    Each core tries to append ``appends`` values to a shared log behind
    a *bounded* TAS lock (budget ``tries`` -- a crash-stopped holder
    turns later acquisitions into observable give-ups, never a hang).
    Under the lock: read the next-index word, write the log slot, bump
    the index; the release and the private journal claim follow in
    program order, so the FIFO store buffer gives crash atomicity (see
    the module docstring).  Values encode ``(tid + 1) * 1000 + seq``.
    """
    layout = Layout()
    lock = layout.word()
    next_idx = layout.word()
    slots = n_threads * appends
    log = layout.array(slots)
    journals = [layout.array(2 * appends) for _ in range(n_threads)]
    ncommits = layout.padded_array(n_threads)
    initial = {lock: 0, next_idx: 0}
    for i in range(slots):
        initial[log + 8 * i] = 0
    for tid in range(n_threads):
        initial[ncommits[tid]] = 0
        for k in range(2 * appends):
            initial[journals[tid] + 8 * k] = 0

    programs = []
    for tid in range(n_threads):
        asm = Assembler()
        asm.li(24, 1)
        asm.li(1, lock)
        asm.li(2, next_idx)
        asm.li(3, log)
        asm.li(5, ncommits[tid])
        asm.li(6, 8)
        asm.li(13, 16)
        asm.li(10, 0)                  # committed count
        asm.li(12, journals[tid])      # journal write pointer
        for i in range(appends):
            skip = f"skip_{tid}_{i}"
            emit_tas_try_acquire(asm, lock_reg=1, tries=tries, got_reg=25)
            asm.beq(25, 0, skip)       # budget exhausted: give up this append
            asm.load(7, base=2)                    # idx = next_idx
            asm.mul(8, 7, 6)
            asm.add(8, 8, 3)                       # &log[idx]
            asm.li(9, (tid + 1) * 1000 + i)
            asm.store(9, base=8)                   # log[idx] = value
            asm.add(7, 7, 24)
            asm.store(7, base=2)                   # next_idx = idx + 1
            emit_release(asm, lock_reg=1)
            # Payload before publish: the value store precedes the claim
            # store in program order, so a crash that freezes the FIFO
            # buffer can lose the claim but never publish a claim whose
            # value is still in flight.
            asm.store(9, base=12, offset=8)        # journal: value
            asm.store(7, base=12)                  # journal: claim idx + 1
            asm.add(12, 12, 13)
            asm.add(10, 10, 24)
            asm.store(10, base=5)                  # commit count
            asm.fence(FenceKind.STORE_STORE)
            asm.label(skip)
            asm.exec_(think + 13 * tid)            # staggered think time
        programs.append(asm.build())

    params = dict(n_threads=n_threads, appends=appends, slots=slots,
                  log=log, journals=journals, ncommits=ncommits)
    workload = Workload(
        name=f"replicated-log-{n_threads}x{appends}",
        programs=programs,
        initial_memory=initial,
        description=(f"{n_threads} cores appending {appends} values each "
                     f"to a shared log behind a bounded TAS lock "
                     f"(budget {tries})"),
        validate=lambda result: check_log_agreement(result, **params),
    )
    workload.checker = check_log_agreement
    workload.protocol_params = params
    return workload


def protocol_suite(n_threads: int = 4) -> list:
    """The three protocol workloads at their default shapes."""
    return [leader_election(n_threads), gossip(n_threads),
            replicated_log(n_threads)]
