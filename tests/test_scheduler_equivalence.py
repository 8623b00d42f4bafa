"""Poll-dispatch contract of the heap scheduler, pinned by golden hashes.

The heap scheduler fires the same polls at the same simulation times in
the same order as the seed's per-applet timers did, consuming the engine
RNG identically.  That timer baseline is retired.  Every golden constant
below was captured with both dispatch paths still in the tree, after
asserting heap == timers for that case (poll list, T2A samples, action
count and dispatch-invariant snapshot), by recording the heap run's
outputs: a digest of the poll list, a digest of the T2A samples, the
action count, and the sha256 of the full
:func:`~repro.obs.metrics.deterministic_snapshot`.

The suite covers the fleet workload over a fixed table of (seed,
applets, publications) cases, a 3-shard fleet under every shard
strategy, the heap scheduler's own semantics, plus the
``sample_interval`` bound-histogram cache regression (handle identity
under shard namespacing).
"""

import hashlib
import json

import pytest

from repro.engine import (
    ActionRef,
    EngineConfig,
    FixedPollingPolicy,
    HeapPollScheduler,
    IftttEngine,
    ProductionPollingPolicy,
    SHARD_STRATEGIES,
    ShardedEngine,
    TriggerRef,
)
from repro.engine.oauth import OAuthAuthority
from repro.net import Address, FixedLatency, Network
from repro.obs.metrics import MetricsRegistry, deterministic_snapshot
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator
from repro.testbed.workload import FleetWorld


def digest(value) -> str:
    """sha256 of a value's canonical JSON (tuples serialize as lists)."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def snapshot_sha256(metrics) -> str:
    """sha256 of a registry's full deterministic snapshot."""
    return digest(deterministic_snapshot(metrics))


# -- scheduler-level harness ----------------------------------------------------


class StubEngine:
    """The minimal surface the scheduler needs: ``sim`` and ``_poll(slot)``.

    ``add_runtime`` allocates a scheduler slot for an applet id; fired
    polls are recorded as ``(time, applet_id)``.
    """

    def __init__(self):
        self.sim = Simulator()
        self._scheduler = HeapPollScheduler(self)
        self._slot_ids = []
        self.fired = []

    def add_runtime(self, applet_id: int) -> int:
        slot = self._scheduler.add_slot()
        self._slot_ids.append(applet_id)
        return slot

    def _poll(self, slot):
        self.fired.append((self.sim.now, self._slot_ids[slot]))


class TestFactoryAndConfig:
    def test_config_rejects_unknown(self):
        # no option selects another dispatcher: the knob is gone
        with pytest.raises(TypeError):
            EngineConfig(poll_dispatch="timers")

    def test_config_defaults_to_heap(self):
        engine = IftttEngine(Address("engine.cloud"), config=EngineConfig())
        assert isinstance(engine._scheduler, HeapPollScheduler)

    def test_negative_delay_rejected(self):
        engine = StubEngine()
        runtime = engine.add_runtime(1)
        with pytest.raises(ValueError):
            engine._scheduler.schedule(runtime, -1.0)


class TestHeapSchedulerSemantics:
    def test_same_instant_polls_batch_under_one_wake(self):
        engine = StubEngine()
        runtimes = [engine.add_runtime(i) for i in range(50)]
        for runtime in runtimes:
            engine._scheduler.schedule(runtime, 5.0)
        engine.sim.run()
        stats = engine._scheduler.stats()
        assert stats["wakes"] == 1
        assert stats["batched_polls"] == 50
        # FIFO within the instant: scheduling order is firing order
        assert engine.fired == [(5.0, i) for i in range(50)]

    def test_reschedule_supersedes_earlier_entry(self):
        engine = StubEngine()
        runtime = engine.add_runtime(1)
        engine._scheduler.schedule(runtime, 8.0)
        engine._scheduler.schedule(runtime, 2.0)  # hint pulls the poll earlier
        engine.sim.run()
        assert engine.fired == [(2.0, 1)]
        stats = engine._scheduler.stats()
        assert stats["stale_entries"] == 0  # stale entry consumed on pop

    def test_cancel_is_lazy_and_accounted(self):
        engine = StubEngine()
        runtime = engine.add_runtime(1)
        engine._scheduler.schedule(runtime, 3.0)
        engine._scheduler.cancel(runtime)
        assert engine._scheduler.stats()["stale_entries"] == 1
        assert engine._scheduler.pending_polls() == 0
        engine.sim.run()
        assert engine.fired == []  # the wake is a no-op
        assert engine._scheduler.stats()["stale_entries"] == 0

    def test_wake_pulled_earlier_by_nearer_poll(self):
        engine = StubEngine()
        late, early = engine.add_runtime(1), engine.add_runtime(2)
        engine._scheduler.schedule(late, 30.0)
        engine._scheduler.schedule(early, 1.0)
        engine.sim.run_until(2.0)
        assert engine.fired == [(1.0, 2)]
        engine.sim.run()
        assert engine.fired == [(1.0, 2), (30.0, 1)]


# -- end-to-end fleet goldens ---------------------------------------------------


def run_fleet(n_applets: int, seed: int, publications: int):
    """One instrumented fleet run; returns every dispatch-visible output."""
    config = EngineConfig(
        poll_policy=ProductionPollingPolicy(median=60.0, minimum=20.0),
        initial_poll_jitter=40.0,
    )
    world = FleetWorld(n_applets, engine_config=config, seed=seed)
    result = world.run_publications(publications=publications, spacing=150.0)
    polls = [
        (rec.time, rec.get("applet_id"))
        for rec in world.trace.query(kind="engine_poll_sent")
    ]
    return {
        "polls": polls,
        "latencies": result.latencies,  # the §4 T2A samples
        "actions": result.actions_executed,
        "snapshot_sha256": snapshot_sha256(world.metrics),
    }


#: (seed, applets, publications, actions, polls, poll-list digest,
#: T2A-samples digest, deterministic-snapshot sha256) — heap == timers
#: held for every row when it was captured.
FLEET_GOLDENS = [
    (0, 3, 1, 3, 9,
     "a07d623c01566a8d81c2e0fad51f930a668b084b92ffb1777b9aa6fb322b3f13",
     "f4573f05cee7b3252c68ec52fdc1087939d7a0079ea3f1e4bcd9ecd631f06b87",
     "0af9ddb99c9e58f375d65878b2e2bf910161b1f82dcbbc837fb9dfb36dab76f3"),
    (31337, 3, 2, 6, 17,
     "31985bc901efba65982ff2225b2070938db0ad5b1d64f43b181c68538a288f87",
     "474fa4f5f620e886e1452e8a366b6e88ad84298d017d0b924dc38fa80da4ea62",
     "27db18c2e0324d00ab175e9bc12678d2281a0ea4d0395b191a85930abde6e166"),
    (271828, 25, 1, 24, 83,
     "3325706c632d041f2276161418c7b4792d7a1ad4f2f78eeb7856b7e52eacc4b1",
     "9f1b0014871ac5aebc7e4b317832b71d15d42eae3997349113312dcc9c46ac83",
     "9fa4e1cf4593f3a059db97324cda1f4dcf7ed1f2f2744aebe9125a5e897a06e6"),
    (999983, 25, 2, 49, 139,
     "f7c3bd0fb9ca4524cecf5d728c6308f287adeeb12106399937058bb5d589f683",
     "0eec1482e1df4aae2a0238ec4ad32937d1aa3e0b65e34a270fd553c29373ab4b",
     "8e57cc7c76326266e9188a7bb59b42b16c54979d3ba6af77c8f8033b8e284868"),
    (4242, 11, 2, 22, 65,
     "738624c7078ba7a33651414a574b69252b1115562f94352bff1dea0420484553",
     "6159c025db9c7516108ea9c9255de86d50e86d9720e5b63b7642d13170360e92",
     "ec4aff9eaec973626c78a07b05cfe40207b6b5f230ae13111643b000b8e2680a"),
]


class TestFleetEquivalence:
    @pytest.mark.parametrize(
        "seed,n_applets,publications,actions,n_polls,polls_sha,latencies_sha,"
        "snapshot_sha",
        FLEET_GOLDENS,
        ids=[f"seed{row[0]}-{row[1]}applets-{row[2]}pubs" for row in FLEET_GOLDENS],
    )
    def test_same_seed_same_world(
        self, seed, n_applets, publications, actions, n_polls, polls_sha,
        latencies_sha, snapshot_sha,
    ):
        run = run_fleet(n_applets, seed, publications)
        # the golden poll ordering, to the simulation instant
        assert len(run["polls"]) == n_polls
        assert digest(run["polls"]) == polls_sha
        # the golden T2A samples
        assert digest(run["latencies"]) == latencies_sha
        assert run["actions"] == actions
        # byte-identical deterministic snapshot
        assert run["snapshot_sha256"] == snapshot_sha

    def test_larger_fleet_pinned_case(self):
        run = run_fleet(120, seed=2017, publications=2)
        assert len(run["polls"]) > 200
        assert len(run["polls"]) == 658
        assert digest(run["polls"]) == (
            "401903b613fad40cb21e428a53a69d9dac9fac4833f3cb8c2f4656bc5441ae20"
        )
        assert digest(run["latencies"]) == (
            "257a935b0cc5d6c9fcccb35bb095ed69b9cabfbbff84e72207847c1af882ba3a"
        )
        assert run["actions"] == 237
        assert run["snapshot_sha256"] == (
            "a2a9037cc30505a36764725aebad5b7d6d314d090e366001bd76c17416236053"
        )


# -- sharded goldens ------------------------------------------------------------


def run_sharded(strategy: str, seed: int = 11):
    """A 3-shard fleet over 5 services with event traffic."""
    sim = Simulator()
    rng = Rng(seed=seed, name="equiv-shard")
    metrics = MetricsRegistry()
    sim.metrics = metrics
    net = Network(sim, rng.fork("network"), metrics=metrics)
    # Jittered (continuous) poll times: simultaneous polls on different
    # shards batch per shard, which would change what shared
    # order-sensitive sketches (net.* quantiles) observe relative to
    # one global poll order.  Continuous times make exact cross-shard
    # ties measure-zero, so the pinned global order is well defined.
    config = EngineConfig(
        poll_policy=ProductionPollingPolicy(median=8.0, sigma=0.4, minimum=2.0),
        initial_poll_delay=0.5,
        initial_poll_jitter=3.0,
        num_shards=3,
        shard_strategy=strategy,
    )
    fleet = ShardedEngine(net, config=config, rng=rng.fork("engine"))
    delivered = []
    services = []
    for i in range(5):
        service = net.add_node(PartnerService(
            Address(f"svc{i}.cloud"), slug=f"svc{i}", service_time=0.0,
        ))
        service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
        service.add_action(ActionEndpoint(
            slug="record", name="Record",
            executor=lambda fields, i=i: delivered.append((i, dict(fields))),
        ))
        for shard in fleet.shards:
            net.connect(shard.address, service.address, FixedLatency(0.01))
        fleet.publish_service(service)
        authority = OAuthAuthority(service.slug)
        authority.register_user("alice", "pw")
        fleet.connect_service("alice", service, authority, "pw")
        services.append(service)
    for i in range(5):
        fleet.install_applet(
            user="alice", name=f"a{i}",
            trigger=TriggerRef(f"svc{i}", "ping"),
            action=ActionRef(f"svc{i}", "record", {"n": "{{n}}"}),
        )
    for i in range(8):
        sim.schedule(2.0 + i, services[i % 5].ingest_event, "ping", {"n": i})
    sim.run_until(40.0)
    conservation = [
        shard.actions_dispatched
        == shard.actions_delivered + shard.actions_in_retry
        + len(shard.dead_letters) + shard.actions_in_replay
        for shard in fleet.shards
    ]
    return {
        "delivered": delivered,
        "snapshot_sha256": snapshot_sha256(metrics),
        "conservation": conservation,
    }


#: strategy -> (delivered-actions digest, deterministic-snapshot sha256);
#: the values heap and timers dispatch agreed on when captured.
SHARDED_GOLDENS = {
    "popularity_balanced": (
        "dabda8fbeb2942c01f2ce216238a0c0a26420f2b065034a59f522aafd67bb0ab",
        "e16ad53065d5249beea0040e761ce6e19096abcd8c68557d28ae71cef5391ee1",
    ),
    "round_robin": (
        "dabda8fbeb2942c01f2ce216238a0c0a26420f2b065034a59f522aafd67bb0ab",
        "e16ad53065d5249beea0040e761ce6e19096abcd8c68557d28ae71cef5391ee1",
    ),
    "service_hash": (
        "606a57f9ac6829db510813ba61b59a21c783e14572531ee9cf2cfccdbaea72a4",
        "872258621e3c506bf7a7266444218982f43e4c29def8003b6075732cb5df02d6",
    ),
}


class TestShardedEquivalence:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_modes_agree_under_every_strategy(self, strategy):
        delivered_sha, snapshot_sha = SHARDED_GOLDENS[strategy]
        run = run_sharded(strategy)
        assert len(run["delivered"]) == 8
        assert digest(run["delivered"]) == delivered_sha
        # merged-snapshot algebra preserved: the golden shard-scoped and
        # merged engine.* series, byte for byte
        assert run["snapshot_sha256"] == snapshot_sha
        assert all(run["conservation"])


# -- sample_interval handle-cache regression (satellite) ------------------------


def histogram_counts(metrics) -> dict:
    """Map histogram name -> observation count from a registry snapshot."""
    return {
        entry["name"]: entry["count"]
        for entry in metrics.snapshot()["metrics"]
        if entry["type"] == "histogram"
    }


class TestSampleIntervalCache:
    def test_handle_cached_per_policy(self):
        policy = FixedPollingPolicy(5.0)
        metrics = MetricsRegistry()
        rng = Rng(1)
        policy.sample_interval(rng, metrics)
        first = policy._bound_hist
        policy.sample_interval(rng, metrics)
        assert policy._bound_hist is first
        (count,) = histogram_counts(metrics).values()
        assert count == 2

    def test_rebinds_on_new_registry(self):
        policy = FixedPollingPolicy(5.0)
        rng = Rng(1)
        first_registry, second_registry = MetricsRegistry(), MetricsRegistry()
        policy.sample_interval(rng, first_registry)
        policy.sample_interval(rng, second_registry)
        policy.sample_interval(rng, second_registry)
        assert sum(histogram_counts(first_registry).values()) == 1
        assert sum(histogram_counts(second_registry).values()) == 2

    def test_rebinds_on_shard_namespaced_metric_name(self):
        # a cloned policy observed under engine.shard<i>.* must not keep
        # writing into the prototype's engine.* histogram
        prototype = FixedPollingPolicy(5.0)
        metrics = MetricsRegistry()
        rng = Rng(1)
        prototype.sample_interval(
            rng, metrics, metric_name="engine.poll_interval_seconds"
        )
        clone = prototype.clone()
        clone.sample_interval(
            rng, metrics, metric_name="engine.shard0.poll_interval_seconds"
        )
        clone.sample_interval(
            rng, metrics, metric_name="engine.shard0.poll_interval_seconds"
        )
        by_name = histogram_counts(metrics)
        assert by_name["engine.poll_interval_seconds"] == 1
        assert by_name["engine.shard0.poll_interval_seconds"] == 2

    def test_rebinds_on_label_change(self):
        policy = FixedPollingPolicy(5.0)
        metrics = MetricsRegistry()
        rng = Rng(1)
        policy.sample_interval(rng, metrics, shard="0")
        bound_for_shard0 = policy._bound_hist
        policy.sample_interval(rng, metrics, shard="1")
        assert policy._bound_hist is not bound_for_shard0

    def test_sharded_fleet_namespaces_isolated(self):
        # end-to-end: per-shard poll_interval histograms receive exactly
        # that shard's polls (no cross-shard handle leakage)
        sim = Simulator()
        rng = Rng(seed=4, name="ns")
        metrics = MetricsRegistry()
        net = Network(sim, rng.fork("network"), metrics=metrics)
        config = EngineConfig(
            poll_policy=FixedPollingPolicy(5.0),
            initial_poll_delay=0.5,
            num_shards=2,
            shard_strategy="round_robin",
        )
        fleet = ShardedEngine(net, config=config, rng=rng.fork("engine"))
        service = net.add_node(PartnerService(
            Address("svc.cloud"), slug="svc", service_time=0.0,
        ))
        service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
        service.add_action(ActionEndpoint(
            slug="record", name="Record", executor=lambda fields: None,
        ))
        for shard in fleet.shards:
            net.connect(shard.address, service.address, FixedLatency(0.01))
        fleet.publish_service(service)
        authority = OAuthAuthority("svc")
        authority.register_user("alice", "pw")
        fleet.connect_service("alice", service, authority, "pw")
        for i in range(4):
            fleet.install_applet(
                user="alice", name=f"a{i}",
                trigger=TriggerRef("svc", "ping"),
                action=ActionRef("svc", "record", {"n": "{{n}}"}),
            )
        sim.run_until(30.0)
        by_name = histogram_counts(metrics)
        per_shard = {
            index: sum(
                count
                for name, count in by_name.items()
                if name == f"engine.shard{index}.poll_interval_seconds"
            )
            for index in (0, 1)
        }
        polls = {
            index: shard.polls_sent for index, shard in enumerate(fleet.shards)
        }
        assert per_shard == polls
        assert all(count > 0 for count in per_shard.values())
