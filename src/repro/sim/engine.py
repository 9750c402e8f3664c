"""Deterministic discrete-event simulation engine.

The whole simulated machine -- cores, cache controllers, the directory,
the interconnect -- is driven by a single :class:`Simulator` instance.
Components never busy-wait: they schedule callbacks at future cycles and
the engine dispatches them in (time, insertion-order) order, which makes
every run bit-for-bit deterministic for a given configuration and seed.

Internally the queue is a *calendar of buckets*: one FIFO list per
pending cycle, indexed by a dict, plus a small min-heap holding each
live cycle once.  Scheduling is an O(1) list append (the heap is touched
only when a cycle gains its first event) and dispatch walks one bucket
at a time, so the per-event cost has no heap comparisons in it.

Every queue entry is a bare ``(fn, args)`` pair, appended by
:meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_fast_at` or
inlined by the hot components; a superblock relay (see
:meth:`Simulator.make_relay`) is the same pair with ``fn`` None.  An
entry cannot be cancelled: components neutralise stale continuations
with epoch guards instead.  The ordering contract is spelled out in
docs/PERF.md.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent or stuck state."""


class Simulator:
    """Discrete-event simulator with an integer cycle clock.

    Typical use::

        sim = Simulator()
        sim.schedule_fast(10, some_callback, arg1, arg2)
        sim.run()           # dispatch until the event queue is empty
        print(sim.now)      # simulated cycles elapsed
    """

    def __init__(self) -> None:
        #: time -> FIFO list of ``(fn, args)`` entries.
        self._buckets: dict = {}
        #: min-heap of times; each live bucket's time appears exactly once.
        self._times: List[int] = []
        self._now = 0
        self._events_dispatched = 0
        self._running = False
        self._pending = 0

    @property
    def now(self) -> int:
        """Current simulated cycle."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Total number of events executed so far.

        Updated at bucket granularity while :meth:`run` is dispatching:
        callbacks reading it mid-cycle see the count as of the start of
        the current cycle's bucket.
        """
        return self._events_dispatched

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired events.

        Updated at bucket granularity while :meth:`run` is dispatching,
        like :attr:`events_dispatched`: mid-cycle, the current cycle's
        whole bucket still counts as pending.
        """
        return self._pending

    # ----------------------------------------------------------- scheduling

    def schedule_fast(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be >= 0; a delay of 0 runs later in the current
        cycle (after all previously scheduled same-cycle events).  The
        entry has no handle and cannot be cancelled: components
        neutralise stale continuations with epoch guards instead.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args))
        self._pending += 1

    def schedule_fast_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at cycle {time}; now is {self._now}")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args))
        self._pending += 1

    @staticmethod
    def make_relay(deltas) -> tuple:
        """Build a reusable relay entry for a superblock's event cadence.

        The hook for trace-compiled execution.  A fused superblock
        executes all of its instructions' *work* (register
        writes, pc, stats) in its head event, but it must not collapse
        the span's events into one dispatch: every bucket append in this
        engine happens at a definite moment, and the moment an entry is
        appended fixes its FIFO position among same-cycle events --
        which in turn fixes crossbar arbitration, hit/miss races, and
        therefore the fingerprint.  So the head schedules a *relay
        chain*: one zero-work entry per elided instruction, each
        appended exactly when the per-instruction engine would have
        appended that instruction's event.  The run loop advances relays
        inline (no Python call, no allocation -- the payload list and
        the entry tuple are reused across executions).

        Payload layout (mutable, rewritten by the head per execution):
        ``[deltas, idx, stop, final]`` where ``deltas[k]`` is the
        latency of the span's k-th instruction, ``idx`` is the slot the
        next relay stands in for, ``stop`` is the executed instruction
        count, and ``final`` is the prebuilt ``(fn, args)`` entry for
        the span's successor.  A relay at index ``idx`` fires at the
        same cycle as the elided instruction and appends either the next
        relay (``idx + 1 < stop``) or ``final`` at ``now +
        deltas[idx]``.  Relays count as dispatched events, so
        :attr:`events_dispatched` matches the unfused engine exactly.
        """
        return (None, [tuple(deltas), 0, 0, None])

    # ------------------------------------------------------------- dispatch

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None,
            max_cycles: Optional[int] = None) -> int:
        """Dispatch events until the queue drains (or a limit is hit).

        Parameters
        ----------
        until:
            If given, stop once the clock would pass this cycle; events at
            exactly ``until`` still fire.  The clock ends at
            ``max(now, until)``, so it never moves backwards: if the queue
            drains earlier, ``now`` is advanced to ``until`` (simulated
            time passes even when nothing is scheduled), and if later
            events remain, ``now`` stops there without firing them.
        max_events:
            If given (at least 1), dispatch at most this many events.  Used
            as a watchdog: raises :class:`SimulationError` when one more
            event would dispatch, since a correct run of our workloads
            always drains the queue.  A run that dispatches exactly
            ``max_events`` events and then drains returns normally.
        max_cycles:
            Safety cap on simulated time: raise :class:`SimulationError`
            (with queue diagnostics) before firing any event past this
            cycle.  Off by default for library use; harness and fuzz
            entry points turn it on so a stuck run fails instead of
            spinning forever.

        Returns the simulated cycle at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._running = True
        dispatched = 0
        # Hot-loop locals: every per-event attribute walk avoided here is
        # paid millions of times per experiment point.
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    if until > self._now:
                        self._now = until
                    return self._now
                if max_cycles is not None and time > max_cycles:
                    raise SimulationError(
                        f"watchdog: next event is at cycle {time}, past "
                        f"max_cycles={max_cycles} "
                        f"({self._events_dispatched} events dispatched, "
                        f"{self._pending} pending); the simulated system "
                        f"is likely stuck"
                    )
                heappop(times)
                bucket = buckets[time]
                self._now = time
                # One comparison per event: the watchdog budget collapses
                # to a single int (a huge sentinel when unlimited -- an
                # int/int compare beats int/float).
                budget = (max_events - dispatched) if max_events is not None \
                    else (1 << 62)
                consumed = 0
                try:
                    # The list iterator re-reads the length on every step,
                    # so callbacks appending same-cycle events grow the
                    # bucket and the loop picks them up -- with C-level
                    # iteration instead of manual indexing.
                    for entry in bucket:
                        consumed += 1
                        fn, args = entry
                        if fn is None:
                            # Superblock relay (see make_relay): stand in
                            # for one elided instruction's event -- append
                            # the next hop (or the span's successor) at
                            # exactly the moment the per-instruction
                            # engine would have.
                            idx = args[1]
                            t2 = time + args[0][idx]
                            idx += 1
                            if idx == args[2]:
                                nxt = args[3]
                            else:
                                args[1] = idx
                                nxt = entry
                            b2 = buckets.get(t2)
                            if b2 is None:
                                buckets[t2] = [nxt]
                                heappush(times, t2)
                            else:
                                b2.append(nxt)
                            self._pending += 1
                        else:
                            fn(*args)
                        if consumed >= budget:
                            # Spent: raise only if one more event would
                            # dispatch, from this bucket or a due later one.
                            if consumed < len(bucket) or (
                                    times
                                    and (until is None or times[0] <= until)
                                    and (max_cycles is None
                                         or times[0] <= max_cycles)):
                                raise SimulationError(
                                    f"watchdog: exceeded {max_events} events "
                                    f"at cycle {self._now}; the simulated "
                                    f"system is likely livelocked"
                                )
                finally:
                    self._pending -= consumed
                    self._events_dispatched += consumed
                    dispatched += consumed
                    if consumed < len(bucket):
                        # Aborted mid-bucket (exception in a callback or the
                        # watchdog): keep the unconsumed tail dispatchable.
                        del bucket[:consumed]
                        heapq.heappush(times, time)
                    else:
                        del buckets[time]
            # Queue drained before reaching ``until``: time still passes,
            # so the clock lands exactly on ``until``.
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False

    def step(self) -> bool:
        """Dispatch a single event.

        Returns True if an event fired, False if the queue was empty.
        """
        times = self._times
        if not times:
            return False
        time = times[0]
        bucket = self._buckets[time]
        entry = bucket.pop(0)
        self._pending -= 1
        if not bucket:
            heapq.heappop(times)
            del self._buckets[time]
        self._now = time
        self._events_dispatched += 1
        fn, args = entry
        if fn is None:
            # Superblock relay entry (see make_relay).
            idx = args[1]
            t2 = time + args[0][idx]
            idx += 1
            if idx == args[2]:
                nxt = args[3]
            else:
                args[1] = idx
                nxt = entry
            b2 = self._buckets.get(t2)
            if b2 is None:
                self._buckets[t2] = [nxt]
                heapq.heappush(times, t2)
            else:
                b2.append(nxt)
            self._pending += 1
            return True
        fn(*args)
        return True
