"""Consistency axioms checked over a recorded execution.

Two layers of checking:

* **Coherence-level axioms** (this module): read provenance (no
  out-of-thin-air values), per-location coherence (no thread observes a
  location's writes out of their single global order), RMW atomicity
  (no write intervenes between an atomic's read and write), and
  store-forwarding sanity (a forwarded load returned the latest
  program-order-earlier buffered store's value).  These operate on the
  committed, globally-visible access log in apply order -- which, under
  a single-writer coherence protocol, *is* each location's coherence
  order.  They hold under every consistency model.

* **Per-model ordering axioms** (:mod:`repro.verification.ordering`,
  dispatched from :func:`check_execution` when a ``model`` is given):
  reconstruct reads-from / coherence-order / from-reads edges plus the
  model's preserved-program-order edges (SC: all of po; TSO: po minus
  StoreLoad, with store-buffer forwarding allowed; RMO: only fence- and
  atomic-induced edges) and require the union to be acyclic.  This is
  the axiomatic, Alglave-style check that catches ordering bugs --
  e.g. a store-buffer forwarding error or a rollback that leaks a
  speculative store -- which the coherence-level axioms cannot see.

Every check reads the recording once, into an :class:`ExecutionView`:
per-event columns plus the per-address write order, value-to-producer
maps, ambiguous locations and each core's program-order stream.  Each
axiom below (and the ordering layer) runs over that view, so a full
:func:`check_execution` derives each relation once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.verification.recorder import AccessKind, ExecutionRecorder

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_RMW = AccessKind.RMW


class ConsistencyViolation(AssertionError):
    """A recorded execution broke a consistency axiom."""


class ExecutionView:
    """One recording's events and relations, derived once per check.

    Event ``i`` is ``log[i]``, the ``i``-th committed access in apply
    order; ``core``, ``kind``, ``addr``, ``value``, ``written``, ``po``
    and ``forwarded`` are its fields as columns, and ``wval[i]`` is the
    value it wrote (None for a read or a failed CAS).  ``fences`` are
    the recorder's committed fences.
    """

    __slots__ = ("log", "fences", "initial", "core", "kind", "addr",
                 "value", "written", "po", "forwarded", "wval", "writes",
                 "producer", "ambiguous", "streams")

    def __init__(self, recorder: ExecutionRecorder,
                 initial: Optional[Dict[int, int]] = None) -> None:
        log = recorder.sorted_log()
        self.log = log
        self.fences = recorder.fences
        self.initial = initial = initial or {}
        if log:
            (_, _, core, kind, addr, value, written, _, po,
             forwarded) = zip(*log)
        else:
            core = kind = addr = value = written = po = forwarded = ()
        self.core, self.kind, self.addr = core, kind, addr
        self.value, self.written = value, written
        self.po, self.forwarded = po, forwarded
        #: written value per event
        self.wval = wval = [v if k is _WRITE else w
                            for k, v, w in zip(kind, value, written)]
        #: address -> its writes in coherence (apply) order
        self.writes = writes = {}
        #: address -> written value -> the last write of that value
        self.producer = producer = {}
        #: addresses where a written value repeats (or is the initial
        #: value): a read there has no unique producer
        self.ambiguous = ambiguous = set()
        #: core -> its events in program order (first core seen first)
        self.streams = streams = {}
        for i, c in enumerate(core):
            stream = streams.get(c)
            if stream is None:
                streams[c] = [i]
            else:
                stream.append(i)
            v = wval[i]
            if v is None:
                continue
            a = addr[i]
            values = producer.get(a)
            if values is None:
                producer[a] = {v: i}
                writes[a] = [i]
                if v == initial.get(a, 0):
                    ambiguous.add(a)
            else:
                if v in values or v == initial.get(a, 0):
                    ambiguous.add(a)
                values[v] = i
                writes[a].append(i)
        for stream in streams.values():
            stream.sort(key=po.__getitem__)


def _coherence(view: ExecutionView) -> Tuple[int, int]:
    kind, core, value, written = view.kind, view.core, view.value, view.written
    forwarded, wval, log = view.forwarded, view.wval, view.log
    initial, ambiguous = view.initial, view.ambiguous
    # Each checked address's events in apply order, except forwarded
    # loads: one observes a *buffered* store that has not applied yet,
    # so its position in apply order says nothing about coherence order.
    # Forwarded reads are checked by check_forwarding and the ordering
    # axioms.
    members: Dict[int, List[int]] = {
        a: [] for a in view.writes if a not in ambiguous}
    for i, a in enumerate(view.addr):
        events = members.get(a)
        if events is not None and not forwarded[i]:
            events.append(i)
    checked = 0
    skipped = 0
    for addr, addr_writes in view.writes.items():
        if addr in ambiguous:
            # Some value (possibly the initial one) is written more than
            # once: a read of it has ambiguous provenance.  Skip; the
            # provenance and RMW checks still cover this location, and
            # the skip is surfaced in check_execution's report.
            skipped += 1
            continue
        index_of = {initial.get(addr, 0): 0}
        for position, w in enumerate(addr_writes, 1):
            index_of[wval[w]] = position
        last_seen: Dict[int, int] = {}
        for i in members[addr]:
            k = kind[i]
            if k is _WRITE:
                observed = index_of[value[i]]
            else:
                observed = index_of.get(value[i])
                if observed is None:
                    raise ConsistencyViolation(
                        f"read of unknown value {value[i]} at {addr:#x}")
            c = core[i]
            seen = last_seen.get(c, 0)
            if observed < seen:
                raise ConsistencyViolation(
                    f"core {c} observed {addr:#x} going backwards "
                    f"(write #{observed} after #{seen}) "
                    f"at cycle {log[i].cycle}"
                )
            if k is _RMW and written[i] is not None:
                # A successful RMW also *produces* the next write: the
                # observer's horizon advances to its own write, so a
                # later read of anything older (including the value the
                # RMW itself loaded) is a coherence violation.
                observed = index_of[written[i]]
            if observed > seen:
                last_seen[c] = observed
        checked += 1
    return checked, skipped


def _provenance(view: ExecutionView) -> int:
    addr, value, producer = view.addr, view.value, view.producer
    initial = view.initial
    checked = 0
    for i, k in enumerate(view.kind):
        if k is _WRITE:
            continue
        a = addr[i]
        v = value[i]
        if v not in producer.get(a, ()) and v != initial.get(a, 0):
            raise ConsistencyViolation(
                f"core {view.core[i]} read {v} from "
                f"{a:#x} at cycle {view.log[i].cycle}, but no write "
                f"ever produced that value"
            )
        checked += 1
    return checked


def _rmw_atomicity(view: ExecutionView) -> int:
    kind, value, wval = view.kind, view.value, view.wval
    checked = 0
    if _RMW not in kind:
        return checked
    for addr, addr_writes in view.writes.items():
        expected = view.initial.get(addr, 0)
        for w in addr_writes:
            if kind[w] is _RMW:
                if value[w] != expected:
                    raise ConsistencyViolation(
                        f"RMW atomicity broken at {addr:#x}: core "
                        f"{view.core[w]} loaded {value[w]} but the "
                        f"preceding write left {expected} "
                        f"(cycle {view.log[w].cycle})"
                    )
                checked += 1
            expected = wval[w]
    return checked


def _forwarding(view: ExecutionView) -> int:
    checked = 0
    if True not in view.forwarded:
        return checked
    core, addr, value, po, wval = (view.core, view.addr, view.value,
                                   view.po, view.wval)
    #: (core, addr) -> that core's own writes there in program order,
    #: or None when two of them wrote the same value
    own_writes: Dict[Tuple[int, int], Optional[List[int]]] = {}
    for i, fwd in enumerate(view.forwarded):
        if not fwd:
            continue
        p = po[i]
        if p < 0:
            raise ValueError(
                "forwarded record lacks a program-order index; forwarding "
                "can only be checked on recorder-instrumented runs"
            )
        c, a = key = (core[i], addr[i])
        if key not in own_writes:
            ws = [w for w in view.streams[c]
                  if addr[w] == a and wval[w] is not None]
            values = [wval[w] for w in ws]
            own_writes[key] = ws if len(set(values)) == len(values) else None
        ws = own_writes[key]
        if ws is None:
            # Duplicate own values: provenance by value is ambiguous
            # (check_read_provenance still covers the read).
            continue
        latest = None
        for w in ws:
            if po[w] < p:
                latest = w
            else:
                break
        if latest is None:
            raise ConsistencyViolation(
                f"core {c} forwarded {value[i]} from {a:#x} (po {p}) with "
                f"no earlier own store to forward from"
            )
        if value[i] != wval[latest]:
            raise ConsistencyViolation(
                f"core {c} forwarded stale value {value[i]} from {a:#x} "
                f"(po {p}); latest own store (po {po[latest]}) wrote "
                f"{wval[latest]}"
            )
        checked += 1
    return checked


def check_read_provenance(recorder: ExecutionRecorder,
                          initial: Optional[Dict[int, int]] = None) -> int:
    """Every read's value was produced by some write (or is the initial
    value): no out-of-thin-air values, no torn words.

    Returns the number of reads checked.
    """
    return _provenance(ExecutionView(recorder, initial))


def check_per_location_coherence(recorder: ExecutionRecorder,
                                 initial: Optional[Dict[int, int]] = None,
                                 ) -> Tuple[int, int]:
    """Each thread observes every location's writes in one global order,
    never going backwards (CoRR/CoWR freedom).

    Requires write values to be distinguishable per location to map a
    read to its producing write; locations with duplicate written values
    cannot be checked this way.  Returns ``(locations_checked,
    locations_skipped)`` so a caller -- in particular the fuzzer, whose
    generators guarantee unique values -- can tell a clean pass from a
    vacuous one.
    """
    return _coherence(ExecutionView(recorder, initial))


def check_rmw_atomicity(recorder: ExecutionRecorder,
                        initial: Optional[Dict[int, int]] = None) -> int:
    """No write intervenes between an atomic's read and its write.

    For every successful RMW, the value it loaded must be exactly the
    value left by the write immediately preceding the RMW's own write in
    the location's coherence order.  Needs no value uniqueness.
    """
    return _rmw_atomicity(ExecutionView(recorder, initial))


def check_forwarding(recorder: ExecutionRecorder,
                     initial: Optional[Dict[int, int]] = None) -> int:
    """Every store-buffer-forwarded load read the *latest* program-order
    earlier store its own core made to that address.

    Forwarded loads are tagged by the recorder; provenance via value
    matching requires per-location unique written values, so ambiguous
    forwarded reads are skipped (they are still covered by
    :func:`check_read_provenance`).  Returns the number of forwarded
    loads checked.
    """
    return _forwarding(ExecutionView(recorder, initial))


def check_execution(recorder: ExecutionRecorder,
                    initial: Optional[Dict[int, int]] = None,
                    model=None) -> Dict[str, int]:
    """Run every axiom; returns per-check counts, raises on violation.

    ``model`` (a :class:`repro.sim.config.ConsistencyModel`) additionally
    runs the per-model ordering check from
    :mod:`repro.verification.ordering` over the recorded execution.

    The axioms run in a fixed order -- coherence, provenance, RMW
    atomicity, forwarding, then the ordering layer's uniproc and
    model checks -- over one :class:`ExecutionView`, so the first
    violation found is always the same one.

    The report includes ``locations_skipped`` (locations the coherence
    and ordering checks could not cover because of duplicate written
    values -- a fuzz run should assert this is zero) and ``pending_at_end`` (speculative
    records neither committed nor discarded; nonzero raises, because the
    log would not be a complete architectural execution).
    """
    pending = recorder.pending_count
    if pending:
        raise ConsistencyViolation(
            f"{pending} speculative record(s) still pending at end of run: "
            "the simulation ended mid-episode and the log is incomplete"
        )
    view = ExecutionView(recorder, initial)
    coherence_checked, locations_skipped = _coherence(view)
    report = {
        "reads_checked": _provenance(view),
        "locations_coherence_checked": coherence_checked,
        "locations_skipped": locations_skipped,
        "rmws_checked": _rmw_atomicity(view),
        "forwards_checked": _forwarding(view),
        "accesses_recorded": len(recorder),
        "speculative_discarded": recorder.discarded,
        "pending_at_end": pending,
    }
    if model is not None:
        from repro.verification.ordering import order_view
        ordering = order_view(view, model)
        report["ordering_events"] = ordering.events
        report["ordering_edges"] = ordering.edges
    return report
