"""The poll scheduler: how applet polls become simulator events.

The seed engine scheduled **one simulator timer event per applet poll**.
That keeps one live :class:`~repro.simcore.event.Event` in the simulator
heap per installed applet — at the 1M-applet fleet sizes every kernel
heap operation (including the ones for unrelated network deliveries)
pays ``O(log 1M)`` comparisons against rich Event objects.

:class:`HeapPollScheduler` instead keeps **one scheduler wake event per
engine**: due polls live in an engine-internal binary heap of plain
Python ints (C-speed comparisons, no per-poll Event, tuple or float
allocation), and a single simulator event pops every poll due at the
wake time in one batch.  Cancellation (uninstall, disable, reschedule)
is **lazy**: the applet slot's live sequence number is replaced and the
stale heap entry is discarded when it surfaces — with periodic
compaction so uninstall storms cannot pin memory (see
``docs/PERFORMANCE.md``).

Key layout
----------
An applet is named by its *slot*, ``applet_id - applet_id_start`` (ids
are dense per engine).  Each scheduled poll is one int::

    key = (float_bits(due) << 64) | (seq << 24) | slot

* bits 64–126: the IEEE-754 bit pattern of ``due`` read as an unsigned
  integer;
* bits 24–63: ``seq``, a per-engine counter that starts at 1 and grows
  by one per :meth:`~HeapPollScheduler.schedule` (40 bits);
* bits 0–23: the slot (24 bits, 16.7M applets per engine).

Order preservation: for finite and infinite ``due >= 0`` the bit
pattern of a double is monotone in its value (sign bit clear, exponent
above mantissa), so comparing keys compares ``due`` first.  ``-0.0`` is
normalised to ``0.0`` and NaN is rejected, the two values for which
that fails.  The fields occupy disjoint bit ranges, so equal dues
compare by ``seq``, and because ``seq`` is unique the slot bits never
decide.  Integer comparison therefore pops in exactly the
``(due, seq)`` order the former ``(due, seq, runtime, generation)``
tuples gave.  A field that would outgrow its bits raises
``OverflowError`` instead of wrapping.

Lazy cancellation: the per-slot ``live_seq`` column holds the ``seq``
of the slot's one live entry, or 0 when none is scheduled.  A popped
key whose ``seq`` differs is stale.

Golden pins
-----------
The scheduler fires the same polls at the same simulation times in the
same order as the seed's per-applet timers did, consuming the engine
RNG identically.  That timer baseline is retired; the contract it
guarded is pinned by golden hashes that were captured with both
dispatch paths in the tree and heap == timers asserted: poll lists,
T2A samples and deterministic snapshots of fleet, sharded and
uninstall-storm runs (``tests/test_scheduler_equivalence.py``,
``tests/test_scheduler_churn.py``) and the 10K-applet
``benchmarks/bench_fleet_scale.py --gate-only`` snapshot.  A
hypothesis test replays random schedule/cancel/compaction sequences
against a ``(due, seq)`` tuple-heap model
(``tests/test_scheduler_keys.py``).

Ordering fine print: within one engine, polls scheduled for the same
instant fire in scheduling order (the internal heap's ``seq`` mirrors
the simulator's event sequence).  Across engines (shards), simultaneous
polls batch per shard; shard RNGs are independent forks, so per-shard
behaviour — and the merged-snapshot algebra built on it — is
unaffected.
"""

from __future__ import annotations

import struct
from array import array
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional

#: Compaction trigger: rebuild the internal heap once it holds at least
#: this many entries *and* at least half of them are lazily-cancelled.
COMPACT_MIN_ENTRIES = 1024

SLOT_BITS = 24
SEQ_BITS = 40
SLOT_MASK = (1 << SLOT_BITS) - 1
SEQ_MASK = (1 << SEQ_BITS) - 1
DUE_SHIFT = SLOT_BITS + SEQ_BITS

_pack_double = struct.Struct("<d").pack
_unpack_double = struct.Struct("<d").unpack


def float_bits(value: float) -> int:
    """The IEEE-754 bit pattern of ``value`` as an unsigned 64-bit int."""
    return int.from_bytes(_pack_double(value), "little")


def key_due(key: int) -> float:
    """The due time packed into a heap key."""
    return _unpack_double((key >> DUE_SHIFT).to_bytes(8, "little"))[0]


class HeapPollScheduler:
    """One simulator wake event services every applet poll of an engine.

    Entries are packed int keys on a binary heap (layout in the module
    docstring).  ``seq`` is a per-engine monotone counter, so
    same-instant polls pop in scheduling order — the exact tie-break the
    simulator's global event sequence gave the per-applet timers.  A
    popped key whose ``seq`` is not its slot's ``live_seq`` was
    superseded by a reschedule, disable or uninstall and is skipped —
    lazy cancellation, O(1) at cancel time.

    One wake event is kept in the simulator for the earliest entry; it
    is pulled earlier whenever a nearer poll is pushed, and re-armed
    after each batch.  A wake that surfaces only stale entries is a
    cheap no-op; compaction (:meth:`_maybe_compact`) bounds how many
    stale entries an uninstall storm can leave behind.

    The engine allocates one slot per applet with :meth:`add_slot` and
    must provide ``sim`` and ``_poll(slot)``.
    """

    __slots__ = (
        "engine",
        "_heap",
        "_live_seq",
        "_seq",
        "_wake",
        "_firing",
        "stale_entries",
        "compactions",
        "wakes",
        "batched_polls",
    )

    def __init__(self, engine) -> None:
        self.engine = engine
        self._heap: List[int] = []
        # slot -> seq of its live heap entry, 0 when none is scheduled
        self._live_seq = array("Q")
        self._seq = 0  # the last seq handed out
        self._wake: Optional[Any] = None  # the armed simulator Event
        self._firing = False  # suppress re-arming inside a wake batch
        self.stale_entries = 0
        self.compactions = 0
        self.wakes = 0
        self.batched_polls = 0

    # -- scheduling ---------------------------------------------------------

    def add_slot(self) -> int:
        """Allocate the next applet slot (nothing scheduled yet)."""
        slot = len(self._live_seq)
        if slot > SLOT_MASK:
            raise OverflowError(
                f"poll scheduler slots exhausted: more than {SLOT_MASK + 1} "
                "applets on one engine; shard the fleet"
            )
        self._live_seq.append(0)
        return slot

    def schedule(self, slot: int, delay: float, initial: bool = False) -> None:
        """Push the slot's next poll; supersedes any earlier entry."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule a poll into the past (delay={delay})")
        live = self._live_seq
        if live[slot]:
            # The superseded entry stays in the heap; replacing the live
            # seq below marks it stale.
            self.stale_entries += 1
        seq = self._seq + 1
        if seq > SEQ_MASK:
            raise OverflowError(f"poll scheduler sequence exhausted after {SEQ_MASK} polls")
        self._seq = live[slot] = seq
        # "+ 0.0" turns a -0.0 due into 0.0 (their bit patterns differ).
        due = self.engine.sim.now + delay + 0.0
        heappush(
            self._heap,
            (float_bits(due) << DUE_SHIFT) | (seq << SLOT_BITS) | slot,
        )
        self._arm_wake(due)

    def cancel(self, slot: int) -> None:
        """Lazily cancel the slot's scheduled poll (O(1))."""
        live = self._live_seq
        if live[slot]:
            live[slot] = 0
            self.stale_entries += 1
            self._maybe_compact()

    # -- the wake event -----------------------------------------------------

    def _arm_wake(self, due: float) -> None:
        if self._firing:
            # Mid-batch reschedules land in the heap only; _fire re-arms
            # once at the true earliest entry when the batch ends.
            return
        wake = self._wake
        if wake is not None:
            if wake.time <= due:
                return
            # A nearer poll arrived: pull the wake earlier.  The fresh
            # event takes a new simulator sequence number — the same one
            # the per-applet timer for this poll would have taken.
            wake.cancel()
        self._wake = self.engine.sim.schedule_at(
            due, self._fire, label="poll-wake"
        )

    def _fire(self) -> None:
        """Pop and dispatch every poll due now, then re-arm."""
        self._wake = None
        self.wakes += 1
        engine = self.engine
        # Every key with due <= now sorts below the first key of the
        # next representable due.
        limit = (float_bits(engine.sim.now) + 1) << DUE_SHIFT
        heap = self._heap
        live = self._live_seq
        poll = engine._poll
        batch = 0
        self._firing = True
        try:
            while heap and heap[0] < limit:
                key = heappop(heap)
                slot = key & SLOT_MASK
                if live[slot] != (key >> SLOT_BITS) & SEQ_MASK:
                    self.stale_entries -= 1
                    continue
                live[slot] = 0
                batch += 1
                poll(slot)
        finally:
            self._firing = False
        self.batched_polls += batch
        if heap:
            self._arm_wake(key_due(heap[0]))
        self._maybe_compact()

    # -- lazy-cancellation hygiene ------------------------------------------

    def _maybe_compact(self) -> None:
        """Drop stale entries once they dominate a large heap.

        Triggered opportunistically from :meth:`cancel` and after each
        wake batch, so an uninstall storm (50% of the fleet removed at
        once) cannot leave the heap pinned at its pre-storm size.  The
        rebuild keeps the live keys themselves, and keys are unique and
        totally ordered, so compaction is invisible to the dispatch
        sequence.  The heap list is rebuilt in place: a wake batch in
        progress keeps popping from the same list.
        """
        heap = self._heap
        if len(heap) < COMPACT_MIN_ENTRIES or self.stale_entries * 2 < len(heap):
            return
        live = self._live_seq
        heap[:] = [
            key for key in heap
            if live[key & SLOT_MASK] == (key >> SLOT_BITS) & SEQ_MASK
        ]
        heapify(heap)
        self.stale_entries = 0
        self.compactions += 1

    # -- introspection ------------------------------------------------------

    def pending_polls(self) -> int:
        """Live (non-stale) scheduled polls."""
        return len(self._heap) - self.stale_entries

    def stats(self) -> Dict[str, Any]:
        """Heap occupancy and lifecycle counters (for tests and reports)."""
        return {
            "heap_entries": len(self._heap),
            "live_entries": self.pending_polls(),
            "stale_entries": self.stale_entries,
            "compactions": self.compactions,
            "wakes": self.wakes,
            "batched_polls": self.batched_polls,
        }
