"""NaN is not a time: every kernel entry point that takes one rejects it.

``x < 0`` and ``x < now`` are false for NaN, so range checks written
that way let a NaN event into the heap, where it breaks heap order
silently (NaN compares false against everything).  The poll
scheduler's packed keys rely on the rejection too (a NaN's bit pattern
sorts above +inf).
"""

import math

import pytest

from repro.simcore import Event, SimulationError, Simulator

NAN = float("nan")


def noop():
    pass


def test_event_rejects_nan_time():
    with pytest.raises(ValueError):
        Event(NAN, noop)


def test_schedule_rejects_nan_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(NAN, noop)
    assert sim.pending == 0


def test_schedule_at_rejects_nan_time():
    sim = Simulator()
    sim.schedule(1.0, noop)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(NAN, noop)
    assert sim.pending == 0


def test_run_until_rejects_nan_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 1)
    with pytest.raises(SimulationError):
        sim.run_until(NAN)
    assert fired == [] and sim.now == 0.0


def test_heap_order_survives_rejected_nan():
    sim = Simulator()
    order = []
    for delay in (3.0, NAN, 1.0, 2.0):
        try:
            sim.schedule(delay, order.append, delay)
        except SimulationError:
            pass
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_infinite_times_still_accepted():
    sim = Simulator()
    event = sim.schedule(math.inf, noop)
    assert event.time == math.inf
    assert sim.run_until(10.0).completed
