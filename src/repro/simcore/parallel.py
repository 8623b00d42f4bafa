"""Epoch-barriered parallel stepping for sharded simulations.

One global event heap serializes every shard of a
:class:`~repro.engine.sharding.ShardedEngine` through a single clock, so
fleet throughput is pinned to one core no matter how many shards exist.
:class:`ShardedSimulator` removes that bottleneck: every shard gets its
**own** :class:`~repro.simcore.simulator.Simulator` (own heap, own
clock), and shards advance together in bounded **time epochs** under the
classic conservative-synchronization contract:

* Within an epoch ``[t, t + lookahead)`` each shard runs independently —
  in one thread per shard when ``jobs > 1``, or round-robin in the
  calling thread when ``jobs == 1`` ("serial stepping").  The per-shard
  code path is *identical* in both modes.
* Cross-shard traffic (realtime hints, push notifications to a
  receiving shard, remote polls/actions, fleet-level fault-plan events)
  never touches another shard's heap directly: it is posted to a
  per-shard **mailbox** and drained at the next epoch boundary.  Senders
  must guarantee a delivery time at or beyond the barrier — the network
  router (:class:`~repro.net.network.CrossShardRouter`) enforces a
  latency floor of ``lookahead`` on every cross-shard hop, which is the
  lookahead that makes the epoch width safe.
* At each barrier the mailboxes are merged in a deterministic order —
  ``(deliver_at, source shard, per-source sequence)`` — before being
  scheduled into the destination heaps.  Thread scheduling can reorder
  *when* outbox entries are appended relative to each other across
  shards, but never the sorted drain order, so parallel and serial
  stepping execute byte-for-byte the same per-shard event sequences.

Determinism is therefore structural, not incidental: each shard's world
(engine, network, RNG forks, metrics registry) is touched by exactly one
thread inside an epoch, shard RNGs are independent forks
(``rng.fork("shard<i>")``), and fleet results merge through the
commutative snapshot algebra (`shard_snapshot` / `merged_fleet_snapshot`
— counters add, gauges max), so serial and parallel stepping produce
**byte-identical merged snapshots**.  ``make parallel-check`` gates
exactly that, and ``tests/test_parallel_equivalence.py`` pins it across
shard strategies.

Wall-clock scaling follows the hardware: with the CPython GIL, threaded
epochs overlap only the interpreter's release points, so single-process
speedups require multiple cores plus a free-threaded build (or the
fork-per-shard measurement mode in ``benchmarks/bench_fleet_scale.py``,
which sidesteps the GIL entirely).  The architecture — and the
determinism contract — is the same either way.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional

from repro.simcore.simulator import SimulationError, Simulator

#: Default epoch width / cross-shard latency floor, seconds.  Chosen at
#: cloud-internal scale (≈ the p95 of one engine↔service hop): wide
#: enough that chaos-length runs take only a few thousand barriers,
#: narrow enough that a floored cross-shard hint costs less than the
#: fastest poll turnaround it accelerates.
DEFAULT_LOOKAHEAD = 0.05


class MailboxEntry(tuple):
    """``(deliver_at, src, seq, dst, fn, args)`` — kept sortable by the
    deterministic ``(deliver_at, src, seq)`` drain key via plain tuple
    comparison (``fn``/``args`` are never reached because ``(src, seq)``
    is unique)."""

    __slots__ = ()


class ShardedSimulator:
    """N shard simulators stepped together under epoch barriers.

    Parameters
    ----------
    num_shards:
        Number of per-shard :class:`~repro.simcore.simulator.Simulator`
        instances to create (``sims[i]`` is shard *i*'s kernel).
    lookahead:
        Epoch width once the fleet is *coupled* (a cross-shard router
        attached).  Also the minimum latency any cross-shard message must
        carry; :meth:`post` enforces it.  Uncoupled fleets (no possible
        cross-shard traffic) run each shard straight to the target in
        one epoch.
    jobs:
        Worker threads for epoch stepping.  ``1`` = serial round-robin
        stepping in the calling thread; ``N > 1`` steps up to N shards
        concurrently.  Either way the per-shard execution is identical.
    """

    def __init__(
        self,
        num_shards: int,
        lookahead: float = DEFAULT_LOOKAHEAD,
        jobs: int = 1,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.num_shards = num_shards
        self.lookahead = float(lookahead)
        self.jobs = jobs
        self.sims: List[Simulator] = [Simulator() for _ in range(num_shards)]
        # One outbox per source shard plus one controller outbox (index
        # num_shards): during an epoch each shard thread appends only to
        # its own outbox, so no lock is needed anywhere on the hot path.
        self._outboxes: List[List[MailboxEntry]] = [
            [] for _ in range(num_shards + 1)
        ]
        self._seqs = [itertools.count() for _ in range(num_shards + 1)]
        self.epochs = 0
        self.mailbox_messages = 0
        self._coupled = False
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- coupling ------------------------------------------------------------

    def mark_coupled(self) -> None:
        """Declare that cross-shard traffic is possible.

        Called by the cross-shard router when it attaches.  From then on
        epochs are bounded by ``lookahead`` so no shard can run past a
        message another shard may still send it.
        """
        self._coupled = True

    @property
    def coupled(self) -> bool:
        """Whether epochs are bounded by the conservative lookahead."""
        return self._coupled

    # -- mailboxes -----------------------------------------------------------

    def post(
        self,
        dst: int,
        deliver_at: float,
        fn: Callable[..., Any],
        *args: Any,
        src: Optional[int] = None,
    ) -> None:
        """Enqueue ``fn(*args)`` for shard ``dst`` at ``deliver_at``.

        ``src`` is the sending shard (its outbox is appended without
        locking; each shard thread owns exactly one); ``None`` means the
        controller — code running *between* epochs, e.g. a testbed
        injecting fleet-level events before the run starts.
        """
        source = self.num_shards if src is None else src
        self._outboxes[source].append(MailboxEntry((
            deliver_at, source, next(self._seqs[source]), dst, fn, args,
        )))

    def broadcast(
        self, deliver_at: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Post the same callback to every shard (fleet-level events)."""
        for dst in range(self.num_shards):
            self.post(dst, deliver_at, fn, *args)

    def _drain_mailboxes(self) -> None:
        """Schedule every posted entry into its destination heap.

        Runs only at barriers (no shard thread is stepping).  Entries are
        sorted by ``(deliver_at, src, seq)`` — a total order independent
        of thread interleaving — so destination heaps receive identical
        event sequences under serial and parallel stepping.
        """
        pending: List[MailboxEntry] = []
        for outbox in self._outboxes:
            if outbox:
                pending.extend(outbox)
                outbox.clear()
        if not pending:
            return
        pending.sort()
        sims = self.sims
        for deliver_at, _src, _seq, dst, fn, args in pending:
            sim = sims[dst]
            if deliver_at < sim.now:
                raise SimulationError(
                    f"cross-shard message for shard {dst} at t={deliver_at} "
                    f"arrived after its clock ({sim.now}); the sender "
                    f"violated the {self.lookahead}s lookahead floor"
                )
            sim.schedule_at(deliver_at, fn, *args, label="mailbox")
        self.mailbox_messages += len(pending)

    # -- clocks --------------------------------------------------------------

    @property
    def now(self) -> float:
        """The fleet clock: the slowest shard's time (all equal at barriers)."""
        return min(sim.now for sim in self.sims)

    @property
    def fired_count(self) -> int:
        """Total events fired across all shards."""
        return sum(sim.fired_count for sim in self.sims)

    @property
    def pending(self) -> int:
        """Live scheduled events across all shards (O(num_shards))."""
        return sum(sim.pending for sim in self.sims)

    def sim(self, shard: int) -> Simulator:
        """Shard ``i``'s kernel (each shard's nodes schedule only here)."""
        return self.sims[shard]

    # -- epoch stepping ------------------------------------------------------

    def _step_epoch(self, horizon: float) -> int:
        """Advance every shard to ``horizon``; returns events fired."""
        sims = self.sims
        if self.jobs > 1 and len(sims) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(self.jobs, len(sims)),
                    thread_name_prefix="shard-step",
                )
            futures = [self._pool.submit(sim.run_until, horizon) for sim in sims]
            return sum(future.result() for future in futures)
        return sum(sim.run_until(horizon) for sim in sims)

    def run_until(self, time: float) -> int:
        """Step every shard to ``time`` through epoch barriers.

        Returns the total number of events fired by this call.  On
        return all shard clocks equal ``time`` and every cross-shard
        message produced on the way has been delivered or scheduled.
        """
        fired = 0
        lookahead = self.lookahead
        while True:
            self._drain_mailboxes()
            now = self.now
            if now >= time:
                break
            horizon = time if not self._coupled else min(time, now + lookahead)
            fired += self._step_epoch(horizon)
            self.epochs += 1
        return fired

    def run(self, max_epochs: int = 1_000_000) -> int:
        """Step until every heap and mailbox drains (bounded by epochs)."""
        fired = 0
        for _ in range(max_epochs):
            self._drain_mailboxes()
            bounds = [sim.peek_time() for sim in self.sims]
            live = [t for t in bounds if t is not None]
            if not live and not any(self._outboxes):
                break
            horizon = max(live) if not self._coupled else min(live) + self.lookahead
            fired += self._step_epoch(max(horizon, self.now))
            self.epochs += 1
        return fired

    def shutdown(self) -> None:
        """Tear down the worker pool (idempotent; ``with``-free worlds
        call it from their own close paths or rely on interpreter exit)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return (
            f"<ShardedSimulator shards={self.num_shards} now={self.now:.6g} "
            f"epochs={self.epochs} jobs={self.jobs} "
            f"coupled={self._coupled}>"
        )
