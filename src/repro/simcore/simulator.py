"""The event-heap simulator driving all experiments."""

from __future__ import annotations

import heapq
import itertools
import time as _wall  # "time" is a parameter name in run_until
from typing import Any, Callable, List, Optional

from repro.simcore.event import Event


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class RunResult(int):
    """The event count a :meth:`Simulator.run_until` call fired, plus state.

    Behaves exactly like the plain ``int`` the method used to return, so
    existing callers keep working; ``completed`` additionally reports
    whether the horizon was actually drained (``False`` when the run broke
    on ``max_events`` or :meth:`Simulator.stop` with live events still
    pending at ``t <= time``) — the signal callers need to resume instead
    of trusting a clock that must not have advanced.
    """

    def __new__(cls, fired: int, completed: bool) -> "RunResult":
        self = super().__new__(cls, fired)
        self.completed = completed
        return self


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns a binary heap of :class:`~repro.simcore.event.Event`
    objects and a virtual clock ``now`` (seconds, float).  Time only moves
    when events fire; between events nothing happens, so simulated
    experiments that span days of virtual time run in milliseconds.

    Example
    -------
    >>> sim = Simulator()
    >>> order = []
    >>> sim.schedule(2.0, lambda: order.append("b"))
    >>> sim.schedule(1.0, lambda: order.append("a"))
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Event] = []
        self._running = False
        self._stopped = False
        self._fired_count = 0
        self._live = 0  # scheduled, not yet fired, not canceled
        # Per-simulator event sequence: same-instant FIFO order needs only
        # per-heap monotonicity, and independent counters keep concurrently
        # stepped shard simulators (repro.simcore.parallel) free of any
        # shared mutable state.
        self._seq = itertools.count()
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        #: every run reports events fired, simulated time, and the
        #: wall-clock event rate.  Attached post-construction so the
        #: kernel stays free of upward imports.
        self.metrics = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-canceled) events still scheduled.

        O(1): a counter maintained on schedule/fire/cancel, not a heap
        scan — reporting loops may poll it freely at million-entry heaps
        (``tests/test_simcore_simulator.py`` pins equality with the scan).
        """
        return self._live

    def peek_time(self) -> Optional[float]:
        """Absolute time of the next live event, or ``None`` when drained.

        The epoch hook :class:`repro.simcore.parallel.ShardedSimulator`
        uses to pick conservative barrier times.
        """
        event = self._peek()
        return None if event is None else event.time

    @property
    def fired_count(self) -> int:
        """Total number of events that have fired so far."""
        return self._fired_count

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may ``cancel()``.
        """
        if not delay >= 0:  # also rejects NaN, which compares false
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at the absolute simulation time ``time``."""
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(f"cannot schedule at t={time} < now={self._now}")
        event = Event(
            time, callback, args, priority=priority, label=label, seq=next(self._seq)
        )
        event._owner = self
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def step(self) -> bool:
        """Fire the next non-canceled event.

        Returns ``True`` if an event fired, ``False`` if the heap is empty.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            event = heappop(heap)
            if event._canceled:
                continue
            if event.time < self._now:
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = event.time
            self._fired_count += 1
            self._live -= 1
            # Detach before firing: a late cancel() on an already-fired
            # event must not decrement the live counter again.
            event._owner = None
            event.fire()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the heap drains (or ``max_events`` fire).

        Returns the number of events fired by this call.  ``max_events``
        guards against runaway feedback loops (the testbed's infinite-loop
        experiments rely on it).
        """
        self._running = True
        self._stopped = False
        fired = 0
        started = _wall.perf_counter()
        step = self.step  # bound once: the loop body is the kernel hot path
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                if not step():
                    break
                fired += 1
        finally:
            self._running = False
            self._report_run(fired, _wall.perf_counter() - started)
        return fired

    def run_until(self, time: float, max_events: Optional[int] = None) -> RunResult:
        """Run events with ``event.time <= time``; then advance the clock to ``time``.

        Returns a :class:`RunResult` — the number of events fired, plus a
        ``completed`` flag.  The clock only advances to ``time`` when the
        horizon was actually drained: a run that broke on ``max_events``
        (or :meth:`stop`) with live events still pending at ``t <= time``
        leaves ``now`` at the last fired event, so a follow-up
        :meth:`step`/:meth:`run_until` resumes instead of raising
        ``SimulationError("event heap corrupted: time went backwards")``.
        """
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(f"cannot run until t={time} < now={self._now}")
        self._running = True
        self._stopped = False
        fired = 0
        started = _wall.perf_counter()
        heap = self._heap
        heappop = heapq.heappop
        try:
            # The kernel hot path: one heap pass per event, with the
            # step() body inlined on local variables.
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                while heap and heap[0]._canceled:
                    heappop(heap)
                if not heap or heap[0].time > time:
                    break
                event = heappop(heap)
                if event.time < self._now:
                    raise SimulationError("event heap corrupted: time went backwards")
                self._now = event.time
                self._fired_count += 1
                self._live -= 1
                # Detach before firing: a late cancel() on an
                # already-fired event must not decrement the live
                # counter again.
                event._owner = None
                event.callback(*event.args)
                fired += 1
        finally:
            self._running = False
            self._report_run(fired, _wall.perf_counter() - started)
        remaining = self._peek()
        completed = not self._stopped and (remaining is None or remaining.time > time)
        if completed:
            self._now = max(self._now, time)
        return RunResult(fired, completed)

    def stop(self) -> None:
        """Stop the current :meth:`run`/:meth:`run_until` after the active event."""
        self._stopped = True

    def _report_run(self, fired: int, elapsed: float) -> None:
        """Fold one run's kernel stats into the attached metrics registry.

        Counters are bumped in bulk per run (not per event) to keep the
        step loop free of instrumentation overhead.  The events/sec gauge
        is wall-clock derived and therefore non-deterministic, but gauges
        never feed back into the simulation.
        """
        if self.metrics is None or fired == 0:
            return
        scope = self.metrics.scoped("sim")
        scope.counter("events_fired").inc(fired)
        scope.counter("runs").inc()
        scope.gauge("time_seconds").set(self._now)
        if elapsed > 0:
            scope.gauge("events_per_wallsec").set(fired / elapsed)

    def _peek(self) -> Optional[Event]:
        """Return the next live event without popping it, discarding canceled ones."""
        while self._heap:
            event = self._heap[0]
            if event.canceled:
                heapq.heappop(self._heap)
                continue
            return event
        return None

    def __repr__(self) -> str:
        return f"<Simulator now={self._now:.6g} pending={self.pending}>"
