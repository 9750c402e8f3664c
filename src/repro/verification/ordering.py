"""Per-model program-order axioms over a recorded execution.

Axiomatic checking in the style of Alglave et al.'s "herding cats" /
"Don't sit on the fence": reconstruct the execution witness from the
committed access log, then require the union of the model's ordering
relations to be acyclic.

Relations
=========

From the log (apply order under a single-writer protocol is coherence
order) and per-location **unique written values** we derive:

* ``co``  -- per-location coherence order: the writes in apply order;
* ``rf``  -- reads-from: each read's producing write, found by value
  (locations with duplicate written values cannot be mapped and are
  skipped -- the report counts them so a fuzz run can assert zero);
* ``fr``  -- from-reads: a read precedes every write coherence-after
  the write it read from;
* ``po``  -- each core's program order, recovered from the ``po`` index
  the core stamps on every access at issue time (the recorder's
  program-order stream, including store-buffer-forwarded loads and
  fences).

Per-model preserved program order
=================================

* **SC**: every program-order edge is preserved; the SC axiom is
  ``acyclic(po | rf | co | fr)``.
* **TSO**: program order is preserved except store->load (a store may
  retire into the store buffer while later loads execute); a load may
  read its own core's buffered store (store-buffer forwarding), so
  *internal* rf edges are excluded from the global order.  StoreLoad
  and FULL fences -- and atomics, which drain the buffer under every
  model -- restore the store->load edges across them.
* **RMO**: no program-order edge is preserved on its own; only fences
  (each kind ordering exactly its before/after access classes) and
  atomics induce edges.  Internal rf is excluded as under TSO.

Every model additionally satisfies the **uniproc** (SC-per-location)
axiom: for each location on its own, program order composes acyclically
with rf/co/fr.  This is checked per location, *not* folded into the
global graph -- same-address store->load order mixed into the global
order would wrongly reject TSO's legal store-buffering-with-forwarding
outcomes -- and it catches apply-order-vs-program-order inversions the
value-based per-location check cannot see.

The checker is sound with respect to the repo's machine: the simulated
core is stronger than each model's axioms (in-order, blocking loads,
FIFO store buffer), so any cycle is a real bug -- exactly the
InvisiFence invisibility property the fuzzer hunts for.

Graphs and cycle reports
========================

The checker runs over a :class:`~repro.verification.checker.ExecutionView`
built once per check.  Each graph is a plain ``node -> [(successor,
label), ...]`` table filled in a fixed order: co, then rf/fr in apply
order, then po-loc per core, then the model's ppo.  The search for a
cycle starts from nodes in the order they gained their first edge and
takes each node's edges in insertion order, so the cycle a violation
names is a function of the log alone.  No edge is added twice (RMO's
atomic edge between two RMWs of one core is added by the earlier one's
pass only) and none joins a node to itself, so a graph's edge count is
the length of its table.  The per-location graphs are vertex-disjoint,
so uniproc searches their union once and goes location by location only
to name the first location with a cycle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import FenceKind
from repro.sim.config import ConsistencyModel
from repro.verification.checker import (
    ConsistencyViolation,
    ExecutionView,
)
from repro.verification.recorder import (
    AccessKind,
    AccessRecord,
    ExecutionRecorder,
    FenceRecord,
)

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_RMW = AccessKind.RMW

#: node -> [(successor, label), ...] in insertion order
Graph = Dict[int, List[Tuple[int, str]]]


@dataclass(frozen=True)
class OrderingReport:
    """Outcome of one per-model ordering check (no violation found)."""

    model: ConsistencyModel
    events: int             #: memory events in the graph
    edges: int              #: ordering edges constructed
    locations_skipped: int  #: locations excluded from rf/fr (duplicate values)


def _find_cycle(graph: Graph, roots, size: int
                ) -> Optional[List[Tuple[int, str, int]]]:
    """One cycle as ``[(u, label, v), ...]``, or None if acyclic.

    Depth-first from each of ``roots`` in turn (nodes ``0 .. size-1``),
    taking every node's edges in insertion order.  A node without edges
    is finished as soon as it is reached: no cycle passes through it.
    """
    color = [0] * size          # 0 unvisited, 1 on the path, 2 done
    parent: Dict[int, Tuple[int, str]] = {}
    get = graph.get
    for root in roots:
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(graph[root]))]
        while stack:
            node, successors = stack[-1]
            for nxt, label in successors:
                seen = color[nxt]
                if seen == 1:
                    # Back edge: unwind the path nxt -> ... -> node.
                    cycle = [(node, label, nxt)]
                    walk = node
                    while walk != nxt:
                        prev, lbl = parent[walk]
                        cycle.append((prev, lbl, walk))
                        walk = prev
                    cycle.reverse()
                    return cycle
                if not seen:
                    edges = get(nxt)
                    if edges is None:
                        color[nxt] = 2
                        continue
                    color[nxt] = 1
                    parent[nxt] = (node, label)
                    stack.append((nxt, iter(edges)))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


#: The read class of the ppo chains and fences: every access but a store.
_READS = frozenset({_READ, _RMW})
#: The write class: every access but a load.  A failed CAS writes
#: nothing, but atomics drain the store buffer and block the core under
#: every model, so they still transmit write-to-write ordering.
_WRITES = frozenset({_WRITE, _RMW})


def _fence_sides(kind: FenceKind) -> Tuple[frozenset, frozenset]:
    """The access kinds a ``kind`` fence orders before it and after it."""
    before = after = frozenset()
    if kind.orders_load_load or kind.orders_load_store:
        before |= _READS
    if kind.orders_store_store or kind.orders_store_load:
        before |= _WRITES
    if kind.orders_load_load or kind.orders_store_load:
        after |= _READS
    if kind.orders_load_store or kind.orders_store_store:
        after |= _WRITES
    return before, after


_FENCE_SIDES = {kind: _fence_sides(kind) for kind in FenceKind}


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
    return order_view(ExecutionView(recorder, initial), model)


def order_view(view: ExecutionView, model: ConsistencyModel
               ) -> OrderingReport:
    """:func:`check_model_ordering` over an already built view."""
    events = view.log
    n = len(events)
    core, kind, addr, value, po = (view.core, view.kind, view.addr,
                                   view.value, view.po)
    if n and min(po) < 0:
        raise ValueError(
            "ordering check requires program-order indices on every "
            "record (run under ExecutionRecorder.attach, or set po "
            "explicitly on hand-built logs)"
        )
    if len(set(zip(core, po))) != n:
        seen_po = set()
        for key in zip(core, po):
            if key in seen_po:
                raise ValueError(
                    f"duplicate program-order index {key} in log")
            seen_po.add(key)

    writes, producer, ambiguous = view.writes, view.producer, view.ambiguous
    initial = view.initial
    graph: Graph = defaultdict(list)
    # The per-location graphs of the uniproc (SC-per-location) axiom, as
    # one table: they share no node.  This is deliberately NOT folded
    # into the global graph: same-address program order composes with
    # rf/co/fr only *per location* -- mixed into the global order it
    # would reject legal TSO outcomes such as store buffering with
    # same-address forwarding (SB+rfi).
    loc_graph: Graph = defaultdict(list)
    #: locations in the order their per-location graph was first touched
    loc_order: Dict[int, None] = {}

    # ----- coherence order (co), and each write's co successor
    co_next: Dict[int, int] = {}
    for a, addr_writes in writes.items():
        if len(addr_writes) > 1:
            loc_order[a] = None
            for w, nxt in zip(addr_writes, addr_writes[1:]):
                graph[w].append((nxt, "co"))
                loc_graph[w].append((nxt, "co"))
                co_next[w] = nxt

    # ----- reads-from (rf) and from-reads (fr)
    sc = model is ConsistencyModel.SC
    for i, k in enumerate(kind):
        if k is _WRITE:
            continue
        a = addr[i]
        if a in ambiguous:
            continue
        values = producer.get(a)
        v = value[i]
        w = None if values is None else values.get(v)
        if w is None:
            if v != initial.get(a, 0):
                raise ConsistencyViolation(
                    f"core {core[i]} read out-of-thin-air value {v} "
                    f"from {a:#x}"
                )
            # Read of the initial value: it precedes every write (fr).
            if values is not None:
                loc_order[a] = None
                first = writes[a][0]
                if first != i:
                    graph[i].append((first, "fr"))
                    loc_graph[i].append((first, "fr"))
            continue
        if i != w:  # an RMW "reads from" the previous write, handled via co
            loc_order[a] = None
            loc_graph[w].append((i, "rf"))
            if sc or core[w] != core[i]:
                graph[w].append((i, "rf"))
        nxt = co_next.get(w)
        if nxt is not None:
            loc_order[a] = None
            if nxt != i:
                graph[i].append((nxt, "fr"))
                loc_graph[i].append((nxt, "fr"))

    # ----- uniproc: same-address program order vs rf/co/fr, per location
    # (model-independent; ambiguous locations keep their po-loc/co edges,
    # which need no value mapping and still catch FIFO drain inversions).
    streams = view.streams
    for stream in streams.values():
        last_at: Dict[int, int] = {}
        for i in stream:
            a = addr[i]
            prev = last_at.get(a)
            if prev is not None:
                loc_order[a] = None
                loc_graph[prev].append((i, "po-loc"))
            last_at[a] = i
    if _find_cycle(loc_graph, loc_graph, n) is not None:
        for a in loc_order:
            cycle = _find_cycle(
                loc_graph, [u for u in loc_graph if addr[u] == a], n)
            if cycle is not None:
                raise ConsistencyViolation(
                    f"per-location coherence (uniproc) violated at "
                    f"{a:#x}:\n" + _render_cycle(events, {}, cycle)
                )

    # ----- fences (committed only), as hub nodes n, n + 1, ...
    fences = view.fences
    fences_by_core: Dict[int, List[Tuple[int, FenceRecord]]] = {}
    for node, f in enumerate(fences, n):
        fences_by_core.setdefault(f.core, []).append((node, f))

    # ----- model-specific preserved program order
    if sc:
        for stream in streams.values():
            for a, b in zip(stream, stream[1:]):
                graph[a].append((b, "po"))
    elif model is ConsistencyModel.TSO:
        for c, stream in streams.items():
            # Chains generating ppo = po minus store->load:
            #   every read-class event orders with its successor and with
            #   the next read-class event; writes chain among write-class
            #   events (_READS, _WRITES).  Transitive paths then yield
            #   exactly the po pairs that are not (store -> later load).
            reads = [i for i in stream if kind[i] is not _WRITE]
            writes_ish = [i for i in stream if kind[i] is not _READ]
            for a, b in zip(stream, stream[1:]):
                if kind[a] is not _WRITE:
                    graph[a].append((b, "po"))
            for a, b in zip(reads, reads[1:]):
                graph[a].append((b, "po-rr"))
            for a, b in zip(writes_ish, writes_ish[1:]):
                graph[a].append((b, "po-ww"))
            # StoreLoad-ordering fences restore the dropped edges.
            for node, f in fences_by_core.get(c, ()):
                if not f.kind.orders_store_load:
                    continue
                before = [i for i in writes_ish if po[i] < f.po]
                after = [i for i in reads if po[i] > f.po]
                if before:
                    graph[before[-1]].append((node, "fence"))
                if after:
                    graph[node].append((after[0], "fence"))
    elif model is ConsistencyModel.RMO:
        for c, stream in streams.items():
            # Only fences and atomics order; each fence is a hub between
            # its before/after access classes, each atomic a full
            # barrier hub.
            for node, f in fences_by_core.get(c, ()):
                before, after = _FENCE_SIDES[f.kind]
                for i in stream:
                    if po[i] < f.po:
                        if kind[i] in before:
                            graph[i].append((node, "fence"))
                    elif kind[i] in after:
                        graph[node].append((i, "fence"))
            for m in stream:
                if kind[m] is not _RMW:
                    continue
                for i in stream:
                    if po[i] < po[m]:
                        # i -> m; an earlier RMW's own pass added it.
                        if kind[i] is not _RMW:
                            graph[i].append((m, "atomic"))
                    elif po[i] > po[m]:
                        graph[m].append((i, "atomic"))
    else:  # pragma: no cover - new models must define their axioms here
        raise ValueError(f"no ordering axioms defined for model {model}")

    cycle = _find_cycle(graph, graph, n + len(fences))
    if cycle is not None:
        raise ConsistencyViolation(
            f"{model.value.upper()} ordering violated: cycle of "
            f"{len(cycle)} edge(s) in po|rf|co|fr:\n"
            + _render_cycle(events, dict(enumerate(fences, n)), cycle)
        )
    edges = (sum(map(len, graph.values()))
             + sum(map(len, loc_graph.values())))
    return OrderingReport(
        model=model,
        events=n,
        edges=edges,
        locations_skipped=len(ambiguous),
    )
