"""The benchmark's three workloads: build a world from a seed, run it, read it.

Each workload is a fixed amount of *simulated* work: publications, polls
and fault windows follow a schedule in simulated time, so the simulated
load is open-loop and identical on every host.  The host-side
measurement is a batch job (work completed per host second at the stated
input size); :mod:`perfbench.run` times :meth:`Workload.setup` and
:meth:`Workload.run` separately.

``fleet_poll``
    The idle-majority read path (the real recipe corpora are heavy-tailed
    and mostly idle): 50K applets on an uncoupled 2-shard
    :class:`~repro.testbed.workload.ShardedFleetWorld`, production
    log-normal polling, no publications, metrics off.  Every poll comes
    back empty, so the kernel, poll scheduler, ``net``, the services poll
    handler and per-applet memory carry the cost; obs, push and the action
    path do nothing, and the stepper runs one epoch.
``fleet_push``
    The write path: 20K applets on a single-simulator
    :class:`~repro.testbed.workload.FleetWorld` under push delivery with
    the fleet-provisioned :class:`~repro.engine.push.PushPolicy` of
    :func:`~repro.testbed.workload.run_fleet_experiment`, metrics on.
    Publications fan out to every applet, so push ingestion, action
    dispatch, the services action handler and the obs P² sketches work;
    the poll scheduler only serves the registration wave (in set-up) and
    safety-net polls, and there is no epoch stepper.
``chaos_outage``
    The ``outage`` chaos scenario on the epoch-stepped
    :class:`~repro.testbed.chaos.ParallelShardedChaosWorld` (the world
    ``run_sharded_chaos_scenario(parallel=True)`` builds), 2 cells, 200
    sensor/sink pairs, dead-letter replay and adaptive delivery on.  The
    same stepper runs *coupled*: thousands of 50 ms epoch barriers and
    every action crossing cells, plus the fault → breaker → retry →
    replay path.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional

from repro.engine.config import EngineConfig
from repro.engine.delivery import DeliveryPolicy
from repro.engine.push import PushPolicy
from repro.engine.resilience import ReplayPolicy
from repro.obs.metrics import deterministic_snapshot, merge_snapshots
from repro.testbed.chaos import ParallelShardedChaosWorld, chaos_scenario
from repro.testbed.workload import FleetWorld, ShardedFleetWorld

#: Stepping worker threads for the epoch-stepped workloads.  One: the
#: shards still step epoch by epoch through the same per-shard code
#: (``jobs=1`` is the stepper's serial round-robin), but without two
#: threads handing the interpreter lock back and forth.  On a 2-core host
#: two GIL-bound workers ran 8–15% slower and their repeats spread about
#: twice as wide (cv ≈15% against ≈7%), which measured the host's
#: scheduler rather than the program.
STEP_WORKERS = 1

FLEET_POLL_APPLETS = 50_000
FLEET_POLL_SHARDS = 2
#: First polls spread over this many simulated seconds; the horizon
#: covers the whole first wave plus the short-interval tail of the second.
FLEET_POLL_JITTER = 120.0
FLEET_POLL_HORIZON = 150.0

FLEET_PUSH_APPLETS = 20_000
FLEET_PUSH_PUBLICATIONS = 2
#: Simulated seconds between publications: long enough for one
#: publication's fan-out to drain (p99 T2A ≈ 5 s), short enough that the
#: 600 s safety-net poll cadence stays idle.
FLEET_PUSH_SPACING = 30.0

CHAOS_SCENARIO = "outage"
CHAOS_CELLS = 2
CHAOS_PAIRS = 200


def quantile(ordered: List[float], q: float) -> Optional[float]:
    """Nearest-rank quantile of an ascending list (``None`` when empty)."""
    if not ordered:
        return None
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def snapshot_sha256(registries) -> str:
    """sha256 of the merged deterministic snapshot of ``registries``."""
    combined = merge_snapshots(*(registry.snapshot() for registry in registries))
    blob = json.dumps(deterministic_snapshot(combined), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """One workload: ``setup()`` builds the world, ``run()`` drives it.

    After ``setup()`` the layer handles below are populated, so the traced
    run can read each layer's public counters without knowing the world's
    shape.
    """

    name = ""
    #: Whether services first see each applet's trigger identity during
    #: ``run()`` (on its first poll) rather than during ``setup()``; the
    #: memory attribution snapshot waits until every identity exists.
    registers_in_run = False

    def __init__(self, seed: int, workers: int = STEP_WORKERS, scale: float = 1.0) -> None:
        self.seed = seed
        self.workers = workers
        self.scale = scale
        self.world: Any = None
        self.sims: List[Any] = []
        self.stepper: Any = None
        self.engines: List[Any] = []
        self.networks: List[Any] = []
        self.services: List[Any] = []
        self.registries: List[Any] = []
        self.router: Any = None
        self.injectors: List[Any] = []
        self.n_applets = 0
        self.t2a: List[float] = []

    def _scaled(self, count: int) -> int:
        return max(2, int(count * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def shutdown(self) -> None:
        if self.stepper is not None:
            self.stepper.shutdown()

    def engine_totals(self) -> Dict[str, int]:
        """``IftttEngine.stats()`` summed over every engine in the world."""
        totals: Dict[str, int] = {}
        for engine in self.engines:
            for key, value in engine.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def outcome(self) -> Dict[str, Any]:
        """The simulated outcome: counts, T2A summary and the digest."""
        stats = self.engine_totals()
        ordered = sorted(self.t2a)
        digest = {
            "polls": stats["polls_sent"],
            "poll_failures": stats["poll_failures"],
            "actions_dispatched": stats["actions_dispatched"],
            "actions_delivered": stats["actions_delivered"],
            "replay_requests": stats["replay_requests_sent"],
            "t2a_n": len(ordered),
            "t2a_quartiles": [quantile(ordered, q) for q in (0.25, 0.5, 0.75)],
            "snapshot_sha256": (
                snapshot_sha256(self.registries)
                if self.registries and all(r is not None for r in self.registries)
                else None
            ),
        }
        return {
            "digest": digest,
            "t2a_p50_s": quantile(ordered, 0.5),
            "t2a_p99_s": quantile(ordered, 0.99),
            "t2a_n": len(ordered),
            "conservation_residual": (
                stats["actions_dispatched"] - stats["actions_delivered"]
                - stats["actions_in_retry"] - stats["dead_letters"]
                - stats["actions_in_replay"]
            ),
        }

    def requests(self) -> int:
        """Engine-issued simulated requests so far: polls, actions, replays."""
        stats = self.engine_totals()
        return (
            stats["polls_sent"] + stats["actions_dispatched"]
            + stats["replay_requests_sent"]
        )

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        """Workload-specific outcome invariants; returns the violations."""
        problems = []
        if outcome["conservation_residual"] != 0:
            problems.append(
                f"conservation residual {outcome['conservation_residual']} != 0"
            )
        return problems


class FleetPoll(Workload):
    name = "fleet_poll"
    registers_in_run = True

    def setup(self) -> None:
        self.n_applets = self._scaled(FLEET_POLL_APPLETS)
        world = self.world = ShardedFleetWorld(
            self.n_applets,
            num_shards=FLEET_POLL_SHARDS,
            jobs=self.workers,
            engine_config=EngineConfig(initial_poll_jitter=FLEET_POLL_JITTER),
            seed=self.seed,
            with_metrics=False,
            warmup=False,
        )
        self.stepper = world.stepper
        self.sims = list(world.stepper.sims)
        self.engines = list(world.fleet.shards)
        self.networks = list(world.networks)
        self.services = list(world.contents)

    def run(self) -> None:
        self.world.run_until(FLEET_POLL_HORIZON)

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        problems = super().check(outcome)
        digest = outcome["digest"]
        if digest["polls"] < self.n_applets * 0.9:
            problems.append(f"only {digest['polls']} polls for {self.n_applets} applets")
        if digest["actions_dispatched"] or digest["t2a_n"]:
            problems.append("an idle fleet dispatched actions")
        return problems


class FleetPush(Workload):
    name = "fleet_push"

    def setup(self) -> None:
        n = self.n_applets = self._scaled(FLEET_PUSH_APPLETS)
        config = EngineConfig(
            realtime_allowlist=frozenset(),
            initial_poll_jitter=300.0,
            push_policy=PushPolicy(
                max_batch=200,
                low_watermark=max(64, n),
                high_watermark=max(256, 4 * n),
            ),
        )
        # warmup=True: the registration wave (one poll per applet) is
        # part of building the world — a publication only reaches
        # identities the service has already seen polled.
        world = self.world = FleetWorld(
            n, engine_config=config, push=True, seed=self.seed,
            with_trace=False, with_metrics=True,
        )
        self.sims = [world.sim]
        self.engines = [world.engine]
        self.networks = [world.network]
        self.services = [world.content]
        self.registries = [world.metrics]

    def run(self) -> None:
        result = self.world.run_publications(
            publications=FLEET_PUSH_PUBLICATIONS, spacing=FLEET_PUSH_SPACING
        )
        self.t2a = list(result.latencies)

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        problems = super().check(outcome)
        expected = self.n_applets * FLEET_PUSH_PUBLICATIONS
        if outcome["t2a_n"] != expected:
            problems.append(f"{outcome['t2a_n']} actions executed, expected {expected}")
        return problems


class ChaosOutage(Workload):
    name = "chaos_outage"

    def setup(self) -> None:
        self.n_applets = self._scaled(CHAOS_PAIRS)
        world = self.world = ParallelShardedChaosWorld(
            seed=self.seed,
            num_shards=CHAOS_CELLS,
            pairs=self.n_applets,
            replay=ReplayPolicy(),
            delivery=DeliveryPolicy(),
            jobs=self.workers,
        )
        self.stepper = world.stepper
        self.sims = list(world.stepper.sims)
        self.engines = list(world.fleet.shards)
        self.networks = list(world.networks)
        self.services = list(world.sensors) + list(world.sinks)
        self.registries = list(world.registries)
        self.router = world.router
        self.injectors = list(world.injectors)
        self.result: Optional[Any] = None

    def run(self) -> None:
        self.result = self.world.run(chaos_scenario(CHAOS_SCENARIO))
        self.t2a = self.result.t2a_values(range(CHAOS_CELLS))

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        problems = super().check(outcome)
        if self.result.actions_silently_lost:
            problems.append(f"{self.result.actions_silently_lost} actions silently lost")
        if self.result.faults_activated < 1:
            problems.append("the outage never activated")
        if outcome["t2a_n"] != self.result.events_injected:
            problems.append(
                f"{outcome['t2a_n']} deliveries for "
                f"{self.result.events_injected} injected events"
            )
        return problems


WORKLOADS = {cls.name: cls for cls in (FleetPoll, FleetPush, ChaosOutage)}
