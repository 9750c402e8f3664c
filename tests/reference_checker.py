"""The consistency checker as it stood before the one-pass rewrite.

A test-local reference for ``tests/test_checker_oracle.py`` and the slow
differential sweep in ``benchmarks/``: the coherence-level axioms of
``repro.verification.checker`` and the per-model ordering axioms of
``repro.verification.ordering``, copied verbatim and merged into one
module.  From the package it imports only the recorder, the fence kinds
and the model enum, and it shares no code with the checker it is
compared with.  It raises its own :class:`ConsistencyViolation`, so a
comparison looks at the exception's type name and message.

A difference between the two is what the oracle exists to find, so do
not edit this copy to make one go away.  Only a deliberate change to
what the checker reports changes it, in the same commit and for the
same stated reason.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.isa.instructions import FenceKind
from repro.sim.config import ConsistencyModel
from repro.verification.recorder import (
    AccessKind,
    AccessRecord,
    ExecutionRecorder,
    FenceRecord,
)


class ConsistencyViolation(AssertionError):
    """A recorded execution broke a consistency axiom."""


def _write_order(log: List[AccessRecord]) -> Dict[int, List[AccessRecord]]:
    """Per-location list of writes in coherence (apply) order."""
    order: Dict[int, List[AccessRecord]] = defaultdict(list)
    for record in log:
        if record.is_write:
            order[record.addr].append(record)
    return order


def check_read_provenance(recorder: ExecutionRecorder,
                          initial: Optional[Dict[int, int]] = None) -> int:
    """Every read's value was produced by some write (or is the initial
    value): no out-of-thin-air values, no torn words.

    Returns the number of reads checked.
    """
    initial = initial or {}
    log = recorder.sorted_log()
    writes = _write_order(log)
    checked = 0
    for record in log:
        if record.kind is AccessKind.WRITE:
            continue
        legal = {initial.get(record.addr, 0)}
        legal.update(w.written_value for w in writes.get(record.addr, []))
        if record.value not in legal:
            raise ConsistencyViolation(
                f"core {record.core} read {record.value} from "
                f"{record.addr:#x} at cycle {record.cycle}, but no write "
                f"ever produced that value"
            )
        checked += 1
    return checked


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
    initial = initial or {}
    log = recorder.sorted_log()
    writes = _write_order(log)
    checked = 0
    skipped = 0
    for addr, addr_writes in writes.items():
        values = [initial.get(addr, 0)]
        values += [w.written_value for w in addr_writes]
        if len(set(values)) != len(values):
            # Some value (possibly the initial one) is written more than
            # once: a read of it has ambiguous provenance.  Skip; the
            # provenance and RMW checks still cover this location, and
            # the skip is surfaced in check_execution's report.
            skipped += 1
            continue
        index_of = {value: i for i, value in enumerate(values)}
        last_seen: Dict[int, int] = defaultdict(int)
        for record in log:
            if record.addr != addr:
                continue
            if record.forwarded:
                # A forwarded load observes a *buffered* store that has
                # not applied yet, so its position in apply order says
                # nothing about coherence order.  Forwarded reads are
                # checked by check_forwarding and the ordering axioms.
                continue
            if record.kind is AccessKind.WRITE:
                observed = index_of[record.written_value]
            else:
                if record.value not in index_of:
                    raise ConsistencyViolation(
                        f"read of unknown value {record.value} at {addr:#x}"
                    )
                observed = index_of[record.value]
            if observed < last_seen[record.core]:
                raise ConsistencyViolation(
                    f"core {record.core} observed {addr:#x} going backwards "
                    f"(write #{observed} after #{last_seen[record.core]}) "
                    f"at cycle {record.cycle}"
                )
            if record.kind is AccessKind.RMW and record.written is not None:
                # A successful RMW also *produces* the next write: the
                # observer's horizon advances to its own write, so a
                # later read of anything older (including the value the
                # RMW itself loaded) is a coherence violation.
                observed = index_of[record.written]
            last_seen[record.core] = max(last_seen[record.core], observed)
        checked += 1
    return checked, skipped


def check_rmw_atomicity(recorder: ExecutionRecorder,
                        initial: Optional[Dict[int, int]] = None) -> int:
    """No write intervenes between an atomic's read and its write.

    For every successful RMW, the value it loaded must be exactly the
    value left by the write immediately preceding the RMW's own write in
    the location's coherence order.  Needs no value uniqueness.
    """
    initial = initial or {}
    writes = _write_order(recorder.sorted_log())
    checked = 0
    for addr, addr_writes in writes.items():
        for position, record in enumerate(addr_writes):
            if record.kind is not AccessKind.RMW:
                continue
            if position == 0:
                expected = initial.get(addr, 0)
            else:
                expected = addr_writes[position - 1].written_value
            if record.value != expected:
                raise ConsistencyViolation(
                    f"RMW atomicity broken at {addr:#x}: core {record.core} "
                    f"loaded {record.value} but the preceding write left "
                    f"{expected} (cycle {record.cycle})"
                )
            checked += 1
    return checked


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
    initial = initial or {}
    log = recorder.sorted_log()
    checked = 0
    # Per (core, addr): po-sorted list of that core's own writes.
    own_writes: Dict[Tuple[int, int], List[AccessRecord]] = defaultdict(list)
    dup_values: Dict[Tuple[int, int], bool] = {}
    for record in log:
        if record.is_write:
            own_writes[(record.core, record.addr)].append(record)
    for key, ws in own_writes.items():
        ws.sort(key=lambda w: w.po)
        values = [w.written_value for w in ws]
        dup_values[key] = len(set(values)) != len(values)
    for record in log:
        if not record.forwarded:
            continue
        if record.po < 0:
            raise ValueError(
                "forwarded record lacks a program-order index; forwarding "
                "can only be checked on recorder-instrumented runs"
            )
        key = (record.core, record.addr)
        if dup_values.get(key):
            continue
        latest = None
        for w in own_writes.get(key, []):
            if w.po < record.po:
                latest = w
            else:
                break
        if latest is None:
            raise ConsistencyViolation(
                f"core {record.core} forwarded {record.value} from "
                f"{record.addr:#x} (po {record.po}) with no earlier own "
                f"store to forward from"
            )
        if record.value != latest.written_value:
            raise ConsistencyViolation(
                f"core {record.core} forwarded stale value {record.value} "
                f"from {record.addr:#x} (po {record.po}); latest own store "
                f"(po {latest.po}) wrote {latest.written_value}"
            )
        checked += 1
    return checked


def check_execution(recorder: ExecutionRecorder,
                    initial: Optional[Dict[int, int]] = None,
                    model=None) -> Dict[str, int]:
    """Run every axiom; returns per-check counts, raises on violation.

    ``model`` (a :class:`repro.sim.config.ConsistencyModel`) additionally
    runs the per-model ordering check from
    :mod:`repro.verification.ordering` over the recorded execution.

    The report includes ``locations_skipped`` (locations the coherence
    check could not cover because of duplicate written values -- a fuzz
    run should assert this is zero) and ``pending_at_end`` (speculative
    records neither committed nor discarded; nonzero raises, because the
    log would not be a complete architectural execution).
    """
    pending = recorder.pending_count
    if pending:
        raise ConsistencyViolation(
            f"{pending} speculative record(s) still pending at end of run: "
            "the simulation ended mid-episode and the log is incomplete"
        )
    coherence_checked, locations_skipped = check_per_location_coherence(
        recorder, initial)
    report = {
        "reads_checked": check_read_provenance(recorder, initial),
        "locations_coherence_checked": coherence_checked,
        "locations_skipped": locations_skipped,
        "rmws_checked": check_rmw_atomicity(recorder, initial),
        "forwards_checked": check_forwarding(recorder, initial),
        "accesses_recorded": len(recorder),
        "speculative_discarded": recorder.discarded,
        "pending_at_end": pending,
    }
    if model is not None:
        ordering = check_model_ordering(recorder, model, initial)
        report["ordering_events"] = ordering.events
        report["ordering_edges"] = ordering.edges
        report["ordering_locations_skipped"] = ordering.locations_skipped
    return report


@dataclass(frozen=True)
class OrderingReport:
    """Outcome of one per-model ordering check (no violation found)."""

    model: ConsistencyModel
    events: int             #: memory events in the graph
    edges: int              #: ordering edges constructed
    locations_skipped: int  #: locations excluded from rf/fr (duplicate values)


class _Graph:
    """Labelled digraph over small integer nodes with cycle reporting."""

    def __init__(self) -> None:
        self._adj: Dict[int, List[Tuple[int, str]]] = defaultdict(list)
        self._seen = set()
        self.edges = 0

    def add_edge(self, u: int, v: int, label: str) -> None:
        if u == v or (u, v, label) in self._seen:
            return
        self._seen.add((u, v, label))
        self._adj[u].append((v, label))
        self.edges += 1

    def find_cycle(self) -> Optional[List[Tuple[int, str, int]]]:
        """One cycle as ``[(u, label, v), ...]``, or None if acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[int, int] = defaultdict(int)
        parent: Dict[int, Tuple[int, str]] = {}
        for root in list(self._adj):
            if color[root] != WHITE:
                continue
            stack: List[Tuple[int, Iterable]] = [(root, iter(self._adj.get(root, ())))]
            color[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for (nxt, label) in it:
                    if color[nxt] == GREY:
                        # Back edge: unwind the grey path nxt -> ... -> node.
                        cycle = [(node, label, nxt)]
                        walk = node
                        while walk != nxt:
                            prev, lbl = parent[walk]
                            cycle.append((prev, lbl, walk))
                            walk = prev
                        cycle.reverse()
                        return cycle
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        parent[nxt] = (node, label)
                        stack.append((nxt, iter(self._adj.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None


def _is_read(r: AccessRecord) -> bool:
    return r.kind is not AccessKind.WRITE


def _is_write_ish(r: AccessRecord) -> bool:
    """Write side of the ppo chains: stores and *all* RMWs.

    A failed CAS writes nothing, but atomics drain the store buffer and
    block the core under every model, so they still transmit
    write-to-write ordering.
    """
    return r.kind is not AccessKind.READ


def _fence_pairs(kind: FenceKind) -> List[Tuple[bool, bool]]:
    """The (before_is_write, after_is_write) classes this fence orders."""
    pairs = []
    if kind.orders_load_load:
        pairs.append((False, False))
    if kind.orders_load_store:
        pairs.append((False, True))
    if kind.orders_store_store:
        pairs.append((True, True))
    if kind.orders_store_load:
        pairs.append((True, False))
    return pairs


def _render_event(events: Sequence[AccessRecord],
                  fence_nodes: Dict[int, FenceRecord], node: int) -> str:
    if node < len(events):
        r = events[node]
        tag = "fwd-" if r.forwarded else ""
        if r.kind is AccessKind.WRITE:
            return (f"c{r.core}:po{r.po} W {r.addr:#x}={r.value} "
                    f"@cy{r.cycle}")
        if r.kind is AccessKind.RMW:
            return (f"c{r.core}:po{r.po} RMW {r.addr:#x} "
                    f"read={r.value} wrote={r.written} @cy{r.cycle}")
        return (f"c{r.core}:po{r.po} {tag}R {r.addr:#x}={r.value} "
                f"@cy{r.cycle}")
    f = fence_nodes[node]
    return f"c{f.core}:po{f.po} FENCE {f.kind.value}"


def _render_cycle(events: Sequence[AccessRecord],
                  fence_nodes: Dict[int, FenceRecord],
                  cycle: List[Tuple[int, str, int]]) -> str:
    lines = []
    for (u, label, v) in cycle:
        lines.append(f"  {_render_event(events, fence_nodes, u)}")
        lines.append(f"    --{label}-->")
    lines.append(f"  {_render_event(events, fence_nodes, cycle[0][0])}")
    return "\n".join(lines)


def check_model_ordering(recorder: ExecutionRecorder,
                         model: ConsistencyModel,
                         initial: Optional[Dict[int, int]] = None,
                         ) -> OrderingReport:
    """Check the recorded execution against ``model``'s ordering axioms.

    Raises :class:`ConsistencyViolation` with the offending cycle
    rendered event-by-event; returns an :class:`OrderingReport` on
    success.
    """
    initial = initial or {}
    events = recorder.sorted_log()
    for r in events:
        if r.po < 0:
            raise ValueError(
                "ordering check requires program-order indices on every "
                "record (run under ExecutionRecorder.attach, or set po "
                "explicitly on hand-built logs)"
            )
    seen_po = set()
    for r in events:
        key = (r.core, r.po)
        if key in seen_po:
            raise ValueError(f"duplicate program-order index {key} in log")
        seen_po.add(key)

    graph = _Graph()
    n = len(events)

    # Per-location graphs for the uniproc (SC-per-location) axiom.  This
    # is deliberately NOT folded into the global graph: same-address
    # program order composes with rf/co/fr only *per location* -- mixed
    # into the global order it would reject legal TSO outcomes such as
    # store buffering with same-address forwarding (SB+rfi).
    loc_graphs: Dict[int, _Graph] = defaultdict(_Graph)

    # ----- coherence order (co) and value -> write maps per location
    co: Dict[int, List[int]] = defaultdict(list)       # addr -> event ids
    producer: Dict[int, Dict[int, int]] = defaultdict(dict)  # addr -> value -> id
    ambiguous = set()
    for i, r in enumerate(events):
        if not r.is_write:
            continue
        addr = r.addr
        value = r.written_value
        if value in producer[addr] or value == initial.get(addr, 0):
            ambiguous.add(addr)
        producer[addr][value] = i
        co[addr].append(i)
    for addr, writes in co.items():
        for a, b in zip(writes, writes[1:]):
            graph.add_edge(a, b, "co")
            loc_graphs[addr].add_edge(a, b, "co")
    co_pos = {}
    for addr, writes in co.items():
        for pos, w in enumerate(writes):
            co_pos[w] = (addr, pos)

    # ----- reads-from (rf) and from-reads (fr)
    for i, r in enumerate(events):
        if not _is_read(r):
            continue
        addr = r.addr
        if addr in ambiguous:
            continue
        writes = co.get(addr, [])
        w = producer[addr].get(r.value)
        if w is None:
            if r.value != initial.get(addr, 0):
                raise ConsistencyViolation(
                    f"core {r.core} read out-of-thin-air value {r.value} "
                    f"from {addr:#x}"
                )
            # Read of the initial value: it precedes every write (fr).
            if writes:
                graph.add_edge(i, writes[0], "fr")
                loc_graphs[addr].add_edge(i, writes[0], "fr")
            continue
        if i != w:  # an RMW "reads from" the previous write, handled via co
            internal = events[w].core == r.core
            loc_graphs[addr].add_edge(w, i, "rf")
            if model is ConsistencyModel.SC or not internal:
                graph.add_edge(w, i, "rf")
        _, pos = co_pos[w]
        if pos + 1 < len(writes):
            graph.add_edge(i, writes[pos + 1], "fr")
            loc_graphs[addr].add_edge(i, writes[pos + 1], "fr")

    # ----- per-core program-order streams
    per_core: Dict[int, List[int]] = defaultdict(list)
    for i, r in enumerate(events):
        per_core[r.core].append(i)
    for stream in per_core.values():
        stream.sort(key=lambda i: events[i].po)

    # ----- uniproc: same-address program order vs rf/co/fr, per location
    # (model-independent; ambiguous locations keep their po-loc/co edges,
    # which need no value mapping and still catch FIFO drain inversions).
    for stream in per_core.values():
        last_at: Dict[int, int] = {}
        for i in stream:
            addr = events[i].addr
            if addr in last_at:
                loc_graphs[addr].add_edge(last_at[addr], i, "po-loc")
            last_at[addr] = i
    for addr, loc_graph in loc_graphs.items():
        cycle = loc_graph.find_cycle()
        if cycle is not None:
            raise ConsistencyViolation(
                f"per-location coherence (uniproc) violated at {addr:#x}:\n"
                + _render_cycle(events, {}, cycle)
            )

    # ----- fences (committed only), as hub nodes
    fence_nodes: Dict[int, FenceRecord] = {}
    fences_by_core: Dict[int, List[Tuple[int, FenceRecord]]] = defaultdict(list)
    next_node = n
    for f in recorder.fences:
        fence_nodes[next_node] = f
        fences_by_core[f.core].append((next_node, f))
        next_node += 1

    # ----- model-specific preserved program order
    if model is ConsistencyModel.SC:
        for stream in per_core.values():
            for a, b in zip(stream, stream[1:]):
                graph.add_edge(a, b, "po")
    elif model is ConsistencyModel.TSO:
        for core, stream in per_core.items():
            # Chains generating ppo = po minus store->load:
            #   every read-ish event orders with its successor and with
            #   the next read-ish event; writes chain among write-ish
            #   events.  Transitive paths then yield exactly the po
            #   pairs that are not (store -> later load).
            reads = [i for i in stream if _is_read(events[i])]
            writes = [i for i in stream if _is_write_ish(events[i])]
            pos_of = {e: k for k, e in enumerate(stream)}
            for k, i in enumerate(stream[:-1]):
                if _is_read(events[i]):
                    graph.add_edge(i, stream[k + 1], "po")
            for a, b in zip(reads, reads[1:]):
                graph.add_edge(a, b, "po-rr")
            for a, b in zip(writes, writes[1:]):
                graph.add_edge(a, b, "po-ww")
            # StoreLoad-ordering fences restore the dropped edges.
            for node, f in fences_by_core[core]:
                if not f.kind.orders_store_load:
                    continue
                before = [i for i in writes if events[i].po < f.po]
                after = [i for i in reads if events[i].po > f.po]
                if before:
                    graph.add_edge(before[-1], node, "fence")
                if after:
                    graph.add_edge(node, after[0], "fence")
    elif model is ConsistencyModel.RMO:
        for core, stream in per_core.items():
            # Only fences and atomics order; each fence is a hub between
            # its before/after access classes, each atomic a full
            # barrier hub.
            for node, f in fences_by_core[core]:
                pairs = _fence_pairs(f.kind)
                before_w = any(bw for bw, _ in pairs)
                before_r = any(not bw for bw, _ in pairs)
                after_w = any(aw for _, aw in pairs)
                after_r = any(not aw for _, aw in pairs)
                for i in stream:
                    r = events[i]
                    if r.po < f.po:
                        if ((before_w and _is_write_ish(r))
                                or (before_r and _is_read(r))):
                            graph.add_edge(i, node, "fence")
                    elif ((after_w and _is_write_ish(r))
                            or (after_r and _is_read(r))):
                        graph.add_edge(node, i, "fence")
            for m in stream:
                if events[m].kind is not AccessKind.RMW:
                    continue
                for i in stream:
                    if events[i].po < events[m].po:
                        graph.add_edge(i, m, "atomic")
                    elif events[i].po > events[m].po:
                        graph.add_edge(m, i, "atomic")
    else:  # pragma: no cover - new models must define their axioms here
        raise ValueError(f"no ordering axioms defined for model {model}")

    cycle = graph.find_cycle()
    if cycle is not None:
        raise ConsistencyViolation(
            f"{model.value.upper()} ordering violated: cycle of "
            f"{len(cycle)} edge(s) in po|rf|co|fr:\n"
            + _render_cycle(events, fence_nodes, cycle)
        )
    edges = graph.edges + sum(g.edges for g in loc_graphs.values())
    return OrderingReport(
        model=model,
        events=n,
        edges=edges,
        locations_skipped=len(ambiguous),
    )
