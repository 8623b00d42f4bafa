"""Per-applet memory: the idle-applet byte budget and the lazy-state contract.

Most applets of a fleet never see a trigger event (the real recipe
corpora are heavy-tailed and mostly idle), so the engine and the partner
services allocate per-applet state only when it is first used:

* the engine's dedupe state (the sparse ``_seen_ids``/``_seen_order``
  columns) on the first remembered event id;
* a service's trigger ring (``TriggerBuffer._events``) on the first
  appended event;
* one polling-policy clone per (engine, trigger service) unless the
  policy learns per applet.

The budget tests hold the bytes an idle applet costs in ``engine`` and
``services`` after the first poll wave (every trigger identity
registered); the remaining tests pin that the lazy state behaves exactly
like the eager state it replaced.  See ``docs/PERFORMANCE.md``
("Per-applet memory").
"""

import gc
import tracemalloc

import pytest

from repro.engine import (
    AdaptivePollingPolicy,
    EngineConfig,
    FixedPollingPolicy,
    ProductionPollingPolicy,
)
from repro.services.buffer import TriggerBuffer, TriggerEvent
from repro.testbed.workload import FleetWorld, ShardedFleetWorld

from tests.helpers import build_engine_world, install_ping_applet

#: Engine + services bytes per idle applet after the first poll wave.
#: Measured on CPython 3.11: 542 B on the 2K-applet FleetWorld and 554 B
#: on the 2-shard ShardedFleetWorld with columnar applet slots, against
#: 747 B / 793 B with a slotted per-applet runtime object and tuple heap
#: entries, and 2969 B / 3012 B before that with eager dedupe and
#: trigger-ring state, per-applet policy clones and an unslotted applet
#: object.  The budget is the larger measurement plus 10%.
IDLE_APPLET_BUDGET_B = 610

BUDGET_APPLETS = 2_000


def engine_and_services_bytes_per_applet(build, n_applets):
    """Live bytes allocated in ``repro.engine``/``repro.services`` by
    ``build()``, per applet, with the built world still alive."""
    gc.collect()
    tracemalloc.start()
    try:
        world = build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    total = 0
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        if "/repro/engine/" in filename or "/repro/services/" in filename:
            total += stat.size
    return world, total / n_applets


class TestIdleAppletBudget:
    def test_fleet_world(self):
        world, per_applet = engine_and_services_bytes_per_applet(
            lambda: FleetWorld(
                BUDGET_APPLETS, with_trace=False, with_metrics=False, shared_user=True
            ),
            BUDGET_APPLETS,
        )
        # the warm-up ran the first poll wave: every identity is registered
        assert len(world.content.known_identities) == BUDGET_APPLETS
        assert world.engine.polls_sent == BUDGET_APPLETS
        assert per_applet <= IDLE_APPLET_BUDGET_B

    def test_sharded_fleet_world(self):
        world, per_applet = engine_and_services_bytes_per_applet(
            lambda: ShardedFleetWorld(BUDGET_APPLETS, num_shards=2, with_metrics=False),
            BUDGET_APPLETS,
        )
        assert sum(len(c.known_identities) for c in world.contents) == BUDGET_APPLETS
        assert per_applet <= IDLE_APPLET_BUDGET_B
        world.shutdown()


def seen_ids(engine, applet):
    """The applet's dedupe set, as the engine's membership check sees it."""
    return engine._seen_ids.get(engine._slot_of(applet.applet_id), frozenset())


def seen_order(engine, applet):
    """The applet's dedupe FIFO, or ``None`` while it has none."""
    return engine._seen_order.get(engine._slot_of(applet.applet_id))


class TestLazyDedupe:
    def test_first_event_allocates_then_dedupes_across_polls(self):
        world = build_engine_world(with_trace=False)
        engine = world.engine
        applet = install_ping_applet(engine)
        world.sim.run_until(25.0)
        # idle polls allocate nothing; membership checks still answer
        assert engine.poll_count(applet.applet_id) >= 2
        assert seen_order(engine, applet) is None
        assert not seen_ids(engine, applet) and 1 not in seen_ids(engine, applet)
        world.service.ingest_event("ping", {"n": 1})
        world.sim.run_until(80.0)
        # several polls re-returned the buffered event; it fired once
        assert engine.poll_count(applet.applet_id) >= 7
        assert world.executed == [{"note": "1"}]
        event_id = world.service.buffer_for(applet.trigger_identity).latest().event_id
        assert seen_ids(engine, applet) == {event_id}
        assert list(seen_order(engine, applet)) == [event_id]

    def test_first_event_dedupes_across_push_and_poll_paths(self):
        world = FleetWorld(3, push=True, with_trace=False, with_metrics=False, seed=7)
        engine = world.engine
        applets = engine.applets
        assert all(seen_order(engine, applet) is None for applet in applets)
        world.publish("first")
        world.sim.run_until(world.sim.now + 30.0)
        # the push path delivered (and remembered) the event
        assert world.actions_executed == 3
        assert all(len(seen_ids(engine, applet)) == 1 for applet in applets)
        polls_before = engine.polls_sent
        safety_net = engine.config.push_policy.safety_net_interval
        world.sim.run_until(world.sim.now + 2 * safety_net)
        # safety-net polls re-returned the same event; no second action
        assert engine.polls_sent > polls_before
        assert all(len(world.content.buffer_for(a.trigger_identity)) == 1
                   for a in engine.applets)
        assert world.actions_executed == 3

    def test_eviction_is_exact_after_lazy_allocation(self):
        world = build_engine_world(
            config=EngineConfig(poll_policy=FixedPollingPolicy(10.0), dedupe_window=3),
            with_trace=False,
        )
        engine = world.engine
        applet = install_ping_applet(engine)
        slot = engine._slot_of(applet.applet_id)
        engine._remember_event(slot, 1)
        first_ids, first_order = seen_ids(engine, applet), seen_order(engine, applet)
        for event_id in range(2, 6):
            engine._remember_event(slot, event_id)
        # allocated once, then evicted oldest-first down to the window
        assert seen_ids(engine, applet) is first_ids
        assert seen_order(engine, applet) is first_order
        assert list(seen_order(engine, applet)) == [3, 4, 5]
        assert seen_ids(engine, applet) == {3, 4, 5}


def make_events(count):
    return [TriggerEvent.create(float(index), n=index) for index in range(count)]


class TestLazyTriggerBuffer:
    def test_never_appended(self):
        buffer = TriggerBuffer(capacity=5)
        assert buffer.fetch() == [] and buffer.fetch(0) == []
        assert len(buffer) == 0
        assert repr(buffer) == "<TriggerBuffer 0/5>"
        assert buffer.dropped == 0 and buffer.total_appended == 0
        with pytest.raises(IndexError):
            buffer.latest()
        with pytest.raises(ValueError):
            buffer.fetch(-1)

    def test_full_buffer(self):
        buffer = TriggerBuffer(capacity=5)
        events = make_events(8)
        for event in events:
            buffer.append(event)
        assert len(buffer) == 5
        assert buffer.dropped == 3 and buffer.total_appended == 8
        assert buffer.latest() is events[-1]
        assert repr(buffer) == "<TriggerBuffer 5/5>"
        kept = events[3:]
        for limit in (0, 1, 3, 5, 50):
            # newest first, the same list the whole-ring copy returned
            assert buffer.fetch(limit) == kept[::-1][:limit]

    def test_slotted(self):
        assert not hasattr(TriggerBuffer(), "__dict__")


class TestSharedPolicies:
    def install(self, config, count=3):
        world = build_engine_world(config=config, with_trace=False)
        applets = [install_ping_applet(world.engine) for _ in range(count)]
        return world.engine, [world.engine.policy_of(a.applet_id) for a in applets]

    @pytest.mark.parametrize(
        "prototype", [ProductionPollingPolicy(), FixedPollingPolicy(10.0)],
        ids=["production", "fixed"],
    )
    def test_non_learning_policy_is_shared_per_service(self, prototype):
        engine, policies = self.install(EngineConfig(poll_policy=prototype))
        assert all(policy is policies[0] for policy in policies)
        assert policies[0] is not prototype
        other_engine, other_policies = self.install(EngineConfig(poll_policy=prototype))
        assert other_policies[0] is not policies[0]

    def test_learning_policy_gets_one_clone_per_applet(self):
        prototype = AdaptivePollingPolicy()
        engine, policies = self.install(EngineConfig(poll_policy=prototype))
        assert len({id(policy) for policy in policies + [prototype]}) == 4
        policies[0].observe_events(5)
        assert policies[0].activity > 0.0
        assert policies[1].activity == 0.0 and prototype.activity == 0.0


class TestAppletObject:
    def test_slotted(self):
        world = build_engine_world(with_trace=False)
        assert not hasattr(install_ping_applet(world.engine), "__dict__")

    def test_service_keys_identity_with_the_applets_string(self):
        world = build_engine_world(with_trace=False)
        applet = install_ping_applet(world.engine)
        world.sim.run_until(5.0)
        (key,) = world.service._identities
        assert key is applet.trigger_identity
        assert key == applet.trigger.identity(applet.applet_id, applet.user)
