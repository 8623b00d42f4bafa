"""Scheduled events for the discrete-event simulator."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Tuple

_seq_counter = itertools.count()


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, priority, seq)``.  The monotonically
    increasing sequence number guarantees a stable FIFO order for events
    scheduled at the same instant, which keeps simulations deterministic.

    Parameters
    ----------
    time:
        Absolute simulation time at which the event fires.
    callback:
        Zero-or-more-argument callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    priority:
        Tie-break between events at the same time; lower fires first.
    label:
        Optional human-readable tag used by traces and ``repr``.
    """

    __slots__ = (
        "time", "callback", "args", "priority", "seq", "label", "_canceled", "_owner"
    )

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        label: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> None:
        if not time >= 0:  # also rejects NaN, which compares false
            raise ValueError(f"event time must be a non-negative number, got {time}")
        self.time = float(time)
        self.callback = callback
        self.args = args
        self.priority = priority
        self.seq = next(_seq_counter) if seq is None else seq
        self.label = label
        self._canceled = False
        #: The owning simulator's live-event ledger (set by
        #: ``Simulator.schedule_at``); lets :meth:`cancel` keep the O(1)
        #: ``Simulator.pending`` counter exact without a heap scan.
        self._owner = None

    @property
    def canceled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._canceled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Canceling is idempotent.  A canceled event stays in the heap but is
        skipped by the simulator when popped; the owning simulator's live
        counter is decremented here, exactly once, so ``Simulator.pending``
        stays O(1).
        """
        if self._canceled:
            return
        self._canceled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._live -= 1

    def fire(self) -> None:
        """Invoke the callback unless the event was canceled."""
        if not self._canceled:
            self.callback(*self.args)

    def sort_key(self) -> Tuple[float, int, int]:
        """Key used by the simulator's event heap."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        # Compared O(log n) times per heap operation; comparing fields
        # directly avoids building two tuples per comparison, which at
        # fleet-scale heap sizes dominated kernel time.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        state = " canceled" if self._canceled else ""
        return f"<Event t={self.time:.6g}{tag}{state}>"
