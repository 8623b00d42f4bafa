"""The packed-int poll heap against a ``(due, seq)`` tuple-heap model.

:class:`~repro.engine.scheduler.HeapPollScheduler` keeps one int per
scheduled poll, ``(float_bits(due) << 64) | (seq << 24) | slot``, and
one ``live_seq`` column for lazy cancellation.  The property test here
drives it with random schedule, reschedule, cancel, uninstall and
advance sequences — with compaction forced often by a small threshold —
and checks that it fires exactly the polls, at exactly the times and in
exactly the order, of a reference model: the former tuple heap of
``(due, seq, slot, generation)`` entries popped in ``(due, seq)``
order.  The remaining tests pin the key layout's edges: bit-order
monotonicity, ``-0.0``, NaN and field overflow.
"""

import math
from heapq import heappop, heappush
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import scheduler as scheduler_module
from repro.engine.scheduler import SEQ_MASK, HeapPollScheduler, float_bits, key_due
from repro.simcore import Simulator

SLOTS = 16


class StubEngine:
    """``sim`` plus a ``_poll(slot)`` that records and optionally re-polls.

    ``repeat[slot]`` is the delay the slot reschedules itself with when
    it fires, as the engine does after every poll (``None``: no
    reschedule).
    """

    def __init__(self):
        self.sim = Simulator()
        self.scheduler = HeapPollScheduler(self)
        self.repeat = [None] * SLOTS
        self.fired = []
        for _ in range(SLOTS):
            self.scheduler.add_slot()

    def _poll(self, slot):
        self.fired.append((self.sim.now, slot))
        if self.repeat[slot] is not None:
            self.scheduler.schedule(slot, self.repeat[slot])


class TupleHeapModel:
    """The reference: ``(due, seq, slot, generation)`` tuples, lazily
    cancelled by a per-slot generation, popped in ``(due, seq)`` order."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.gen = [0] * SLOTS
        self.scheduled = [False] * SLOTS
        self.repeat = [None] * SLOTS
        self.fired = []

    def schedule(self, slot, delay):
        self.gen[slot] += 1
        self.scheduled[slot] = True
        self.seq += 1
        heappush(self.heap, (self.now + delay, self.seq, slot, self.gen[slot]))

    def cancel(self, slot):
        if self.scheduled[slot]:
            self.scheduled[slot] = False
            self.gen[slot] += 1

    def run_until(self, horizon):
        while self.heap and self.heap[0][0] <= horizon:
            due, _, slot, gen = heappop(self.heap)
            if gen != self.gen[slot]:
                continue
            self.scheduled[slot] = False
            self.now = due
            self.fired.append((due, slot))
            if self.repeat[slot] is not None:
                self.schedule(slot, self.repeat[slot])
        self.now = horizon

    def pending(self):
        return sum(self.scheduled)


# Equal dues come from the small fixed delays; 0.0 gives due == now
# (and due == 0.0 before the first advance); the huge ones exercise
# high exponent bits.
delays = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e12]),
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, SLOTS - 1), delays),
        # a burst: every slot at once, so compaction rebuilds a full heap
        st.tuples(
            st.just("schedule_all"), st.just(0),
            st.lists(delays, min_size=SLOTS, max_size=SLOTS),
        ),
        st.tuples(st.just("cancel"), st.integers(0, SLOTS - 1), st.just(0.0)),
        st.tuples(st.just("uninstall"), st.integers(0, SLOTS - 1), st.just(0.0)),
        st.tuples(
            st.just("repeat"), st.integers(0, SLOTS - 1),
            st.sampled_from([None, 0.5, 1.0, 3.0]),
        ),
        st.tuples(
            st.just("advance"), st.just(0),
            st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 50.0)),
        ),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(ops=operations, compact_min=st.sampled_from([1, 2, 4, 1024]))
def test_fire_order_matches_tuple_heap_model(ops, compact_min):
    engine, model = StubEngine(), TupleHeapModel()
    sched = engine.scheduler
    removed = set()
    with mock.patch.object(scheduler_module, "COMPACT_MIN_ENTRIES", compact_min):
        for op, slot, value in ops:
            if op == "advance":
                horizon = engine.sim.now + value
                engine.sim.run_until(horizon)
                model.run_until(horizon)
            elif op == "schedule_all":
                for each, delay in enumerate(value):
                    if each not in removed:
                        sched.schedule(each, delay)
                        model.schedule(each, delay)
            elif slot in removed:
                continue
            elif op == "schedule":
                sched.schedule(slot, value)
                model.schedule(slot, value)
            elif op == "cancel":
                sched.cancel(slot)
                model.cancel(slot)
            elif op == "uninstall":
                sched.cancel(slot)
                model.cancel(slot)
                engine.repeat[slot] = model.repeat[slot] = None
                removed.add(slot)
            else:  # repeat
                engine.repeat[slot] = model.repeat[slot] = value
            assert engine.fired == model.fired
            assert sched.pending_polls() == model.pending()
        engine.sim.run_until(engine.sim.now + 100.0)
        model.run_until(model.now + 100.0)
    assert engine.fired == model.fired
    assert sched.pending_polls() == model.pending()


@given(
    a=st.floats(min_value=0.0, allow_nan=False),
    b=st.floats(min_value=0.0, allow_nan=False),
)
def test_bit_order_is_numeric_order_for_non_negative_floats(a, b):
    a, b = a + 0.0, b + 0.0  # the scheduler's -0.0 normalisation
    assert (float_bits(a) < float_bits(b)) == (a < b)
    assert key_due(float_bits(a) << 64) == a


def test_adjacent_floats_fire_in_separate_wakes():
    engine = StubEngine()
    engine.scheduler.schedule(0, 1.0)
    engine.scheduler.schedule(1, math.nextafter(1.0, 2.0))
    engine.sim.run_until(1.0)
    assert engine.fired == [(1.0, 0)]
    engine.sim.run()
    assert engine.fired == [(1.0, 0), (math.nextafter(1.0, 2.0), 1)]
    assert engine.scheduler.stats()["wakes"] == 2


def test_negative_zero_due_sorts_as_zero():
    engine = StubEngine()

    def at_negative_zero():
        # an event at t=-0.0 sets the clock to -0.0, so -0.0 + -0.0
        # would make a -0.0 due, whose bit pattern sorts above +inf
        assert math.copysign(1.0, engine.sim.now) < 0
        engine.scheduler.schedule(0, -0.0)
        engine.scheduler.schedule(1, 0.0)

    engine.sim.schedule_at(-0.0, at_negative_zero)
    engine.sim.run()
    # same due: scheduling order decides, as for two 0.0 dues
    assert engine.fired == [(0.0, 0), (0.0, 1)]
    assert math.copysign(1.0, engine.fired[0][0]) > 0


@pytest.mark.parametrize("delay", [float("nan"), -1.0, -math.inf])
def test_nan_and_negative_delays_rejected(delay):
    engine = StubEngine()
    with pytest.raises(ValueError):
        engine.scheduler.schedule(0, delay)
    assert engine.scheduler.stats()["heap_entries"] == 0


def test_sequence_overflow_raises_instead_of_wrapping():
    engine = StubEngine()
    engine.scheduler._seq = SEQ_MASK - 1
    engine.scheduler.schedule(0, 1.0)  # takes the last seq
    with pytest.raises(OverflowError):
        engine.scheduler.schedule(1, 1.0)
    engine.sim.run()
    assert engine.fired == [(1.0, 0)]


def test_slot_overflow_raises_instead_of_wrapping():
    engine = StubEngine()  # slots 0..SLOTS-1 allocated
    with mock.patch.object(scheduler_module, "SLOT_MASK", SLOTS):
        assert engine.scheduler.add_slot() == SLOTS
        with pytest.raises(OverflowError):
            engine.scheduler.add_slot()
