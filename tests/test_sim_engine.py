"""Unit tests for the discrete-event simulation engine.

The engine has one entry kind, a bare ``(fn, args)`` pair, scheduled by
``schedule_fast``/``schedule_fast_at`` and dispatched in (time,
insertion order) order; docs/PERF.md spells out the ordering invariant
these tests encode.
"""

import pytest

from repro.harness.experiments import e1_plan
from repro.harness.parallel import result_fingerprint
from repro.sim.engine import SimulationError, Simulator
from repro.system import System, SystemResult


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0
    assert sim.events_dispatched == 0
    assert sim.pending_events == 0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule_fast(10, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 10


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_fast(30, order.append, 3)
    sim.schedule_fast(10, order.append, 1)
    sim.schedule_fast(20, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]
    assert sim.events_dispatched == 3


def test_same_cycle_events_fire_in_schedule_order():
    """Relative and absolute schedules into one cycle share its FIFO."""
    sim = Simulator()
    order = []
    for i in range(6):
        if i % 2:
            sim.schedule_fast_at(7, order.append, i)
        else:
            sim.schedule_fast(7, order.append, i)
    sim.run()
    assert order == [0, 1, 2, 3, 4, 5]


def test_zero_delay_runs_within_current_cycle():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule_fast(0, order.append, "inner")

    sim.schedule_fast(5, outer)
    sim.schedule_fast(5, order.append, "sibling")
    sim.run()
    # A zero-delay entry joins the back of the current cycle's bucket.
    assert order == ["outer", "sibling", "inner"]
    assert sim.now == 5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_fast(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule_fast(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_fast_at(5, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_fast_at(7, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 7


def test_pending_events_counts_entries():
    sim = Simulator()
    sim.schedule_fast(1, lambda: None)
    sim.schedule_fast_at(2, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule_fast(10, fired.append, "early")
    sim.schedule_fast(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule_fast(50, fired.append, "boundary")
    sim.run(until=50)
    assert fired == ["boundary"]


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    fired = []
    sim.schedule_fast(10, fired.append, "only")
    sim.run(until=50)
    assert fired == ["only"]
    assert sim.now == 50


def test_run_until_advances_clock_on_empty_queue():
    sim = Simulator()
    sim.run(until=30)
    assert sim.now == 30
    sim.run(until=20)  # never moves backwards
    assert sim.now == 30
    # Nor with an event pending past both limits.
    pending = Simulator()
    pending.schedule_fast_at(100, lambda: None)
    assert pending.run(until=30) == 30
    assert pending.run(until=20) == 30
    assert pending.now == 30
    assert pending.pending_events == 1


def test_watchdog_raises_on_runaway():
    sim = Simulator()

    def reschedule():
        sim.schedule_fast(1, reschedule)

    sim.schedule_fast(0, reschedule)
    with pytest.raises(SimulationError, match="watchdog"):
        sim.run(max_events=100)


@pytest.mark.parametrize("cycles", [(1, 2, 3), (1, 1, 1)],
                         ids=["separate-cycles", "one-cycle"])
def test_watchdog_allows_exactly_max_events(cycles):
    sim = Simulator()
    for cycle in cycles:
        sim.schedule_fast_at(cycle, lambda: None)
    assert sim.run(max_events=3) == cycles[-1]
    assert sim.events_dispatched == 3
    assert sim.pending_events == 0


@pytest.mark.parametrize("cycles", [(1, 2, 3, 4), (1, 1, 1, 1), (1, 1, 1, 2)],
                         ids=["separate-cycles", "one-cycle", "next-cycle"])
def test_watchdog_raises_before_one_event_too_many(cycles):
    sim = Simulator()
    for cycle in cycles:
        sim.schedule_fast_at(cycle, lambda: None)
    with pytest.raises(SimulationError, match="exceeded 3 events"):
        sim.run(max_events=3)
    assert sim.events_dispatched == 3
    assert sim.pending_events == 1


def test_watchdog_ignores_events_past_until():
    sim = Simulator()
    for cycle in (1, 2, 9):
        sim.schedule_fast_at(cycle, lambda: None)
    assert sim.run(until=5, max_events=2) == 5
    assert sim.events_dispatched == 2


def test_watchdog_budget_must_be_positive():
    sim = Simulator()
    sim.schedule_fast_at(1, lambda: None)
    with pytest.raises(ValueError, match="max_events"):
        sim.run(max_events=0)
    assert sim.events_dispatched == 0


def test_step_dispatches_single_event():
    sim = Simulator()
    fired = []
    sim.schedule_fast(3, fired.append, 1)
    sim.schedule_fast_at(5, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.now == 3
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()
    assert sim.events_dispatched == 2
    assert sim.pending_events == 0


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule_fast(1, nested)
    sim.run()
    assert len(errors) == 1


def test_callback_args_passed_through():
    sim = Simulator()
    got = []
    sim.schedule_fast(1, lambda x, y: got.append((x, y)), 4, 2)
    sim.schedule_fast_at(2, lambda: got.append(()))
    sim.run()
    assert got == [(4, 2), ()]


def test_step_loop_reproduces_run_on_a_fused_point():
    """``step()`` keeps its own copy of the dispatch and relay code, so a
    fused point driven one event at a time must reproduce
    ``System.run()``: the same fingerprint and event count."""
    spec = next(s for s in e1_plan(n_cores=2, scale=0.2)
                if s.label == "locks-ticket|sc")

    def build():
        return System(spec.config, spec.workload.programs,
                      spec.workload.initial_memory)

    ran = build().run()
    stepped_system = build()
    for core in stepped_system.cores:
        core.start()
    while stepped_system.sim.step():
        pass
    assert stepped_system.all_settled
    stepped = SystemResult(stepped_system)
    assert stepped.fused_instructions() > 0, "fusion never fired"
    assert (result_fingerprint(stepped), stepped.events, stepped.cycles) == \
        (result_fingerprint(ran), ran.events, ran.cycles)
