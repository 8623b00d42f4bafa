"""Push-mode regressions: tie-break determinism and breaker parking.

Satellite coverage for ISSUE 8:

* **Deterministic tie-break** — a push drain and a poll wake landing on
  the *same* simulation instant are ordered by the kernel's
  ``(time, priority, seq)`` total order (whichever was scheduled first
  fires first).  A crafted same-timestamp schedule replays
  byte-identically: same delivered order, same
  ``deterministic_snapshot`` bytes.
* **Breaker parking** — a push-contract service whose breaker is open
  at the *receiving* engine has its notifications parked on the shared
  hint-suppression dict (counted by ``realtime_hints_suppressed``) and
  resumed as fast polls on close — including the ``round_robin``
  no-home-shard case, where the push lands on the last-published shard
  and is parked/resumed entirely there.
"""

import json

from repro.engine import (
    ActionRef,
    EngineConfig,
    FixedPollingPolicy,
    IftttEngine,
    PushPolicy,
    ShardedEngine,
    TriggerRef,
)
from repro.engine.oauth import OAuthAuthority
from repro.engine.resilience import BreakerState
from repro.net import Address, FixedLatency, Network
from repro.obs.metrics import MetricsRegistry, deterministic_snapshot
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator
from repro.simcore.trace import Trace

SENSOR = "push_sensor"
SINK = "push_sink"


def build_push_world(
    *,
    seed: int = 7,
    push_policy: PushPolicy = None,
    num_shards: int = 1,
    shard_strategy: str = "service_hash",
    applets: int = 1,
    link_latency: float = 0.0,
):
    """A minimal push-contract world: sensor -> engine(s) -> sink.

    Zero link latency and a fixed poll policy keep every event time on
    an exact binary-float grid, so same-instant collisions can be
    crafted deliberately.
    """
    sim = Simulator()
    rng = Rng(seed=seed, name="push-mode")
    trace = Trace()
    metrics = MetricsRegistry()
    sim.metrics = metrics
    net = Network(sim, rng.fork("net"), metrics=metrics)
    config = EngineConfig(
        poll_policy=FixedPollingPolicy(2.0),
        initial_poll_delay=0.5,
        poll_timeout=10.0,
        action_timeout=10.0,
        realtime_allowlist=frozenset(),
        push_policy=push_policy or PushPolicy(),
        num_shards=num_shards,
        shard_strategy=shard_strategy,
    )
    fleet = ShardedEngine(net, config=config, rng=rng.fork("engine"), trace=trace)
    delivered = []
    sensor = net.add_node(PartnerService(
        Address("sensor.cloud"), slug=SENSOR, service_time=0.0,
        push=True, trace=trace,
    ))
    sensor.add_trigger(TriggerEndpoint(slug="tick", name="Tick"))
    sink = net.add_node(PartnerService(
        Address("sink.cloud"), slug=SINK, service_time=0.0, trace=trace,
    ))
    sink.add_action(ActionEndpoint(
        slug="record", name="Record",
        executor=lambda fields: delivered.append((sim.now, fields["n"])),
    ))
    for shard in fleet.shards:
        for node in (sensor, sink):
            net.connect(shard.address, node.address, FixedLatency(link_latency))
    for service in (sensor, sink):
        fleet.publish_service(service)
        authority = OAuthAuthority(service.slug)
        authority.register_user("alice", "pw")
        fleet.connect_service("alice", service, authority, "pw")
    for index in range(applets):
        fleet.install_applet(
            user="alice", name=f"applet{index}",
            trigger=TriggerRef(SENSOR, "tick"),
            action=ActionRef(SINK, "record", {"n": "{{n}}"}),
        )
    return sim, fleet, sensor, sink, delivered, trace, metrics


class TestSameInstantTieBreak:
    """A drain and a poll wake on the same instant replay identically."""

    def run_collision(self):
        # Safety-net polls land at 0.5, 2.5, 4.5, ...; a publication at
        # 4.0 with a 0.5 s batch window drains at exactly 4.5 (all
        # exact binary floats), colliding with the 4.5 poll wake.
        policy = PushPolicy(batch_window=0.5, safety_net_interval=2.0)
        sim, fleet, sensor, sink, delivered, trace, metrics = build_push_world(
            push_policy=policy,
        )
        sim.schedule(4.0, sensor.ingest_event, "tick", {"n": 1}, label="pub")
        sim.run_until(10.0)
        drains = trace.times("engine_push_drain")
        polls = trace.times("engine_poll_sent")
        return {
            "delivered": list(delivered),
            "drains": drains,
            "polls": polls,
            "snapshot": json.dumps(
                deterministic_snapshot(metrics), sort_keys=True
            ).encode(),
            "stats": fleet.stats(),
        }

    def test_collision_actually_happens(self):
        run = self.run_collision()
        assert set(run["drains"]) & set(run["polls"]), (
            "crafted schedule must put a push drain and a poll wake on "
            f"the same instant (drains={run['drains']}, polls={run['polls']})"
        )
        # the pushed event was delivered exactly once (dedupe holds even
        # with the poll fetching the same buffer at the same instant)
        assert [n for _, n in run["delivered"]] == ["1"]
        assert run["stats"]["push_events_ingested"] == 1

    def test_replay_is_byte_identical(self):
        first = self.run_collision()
        second = self.run_collision()
        assert first["delivered"] == second["delivered"]
        assert first["drains"] == second["drains"]
        assert first["polls"] == second["polls"]
        assert first["snapshot"] == second["snapshot"]


class TestBreakerParking:
    """Open breaker parks pushes; close resumes them as fast polls."""

    def trip(self, engine: IftttEngine, slug: str, sim: Simulator) -> None:
        breaker = engine.breaker_for(slug)
        for _ in range(engine.config.breaker_policy.failure_threshold):
            breaker.record_failure(sim.now)
        assert breaker.state is BreakerState.OPEN

    def heal(self, engine: IftttEngine, slug: str, sim: Simulator) -> None:
        breaker = engine.breaker_for(slug)
        assert breaker.allow(sim.now)  # past recovery timeout -> half-open
        breaker.record_success(sim.now)
        assert breaker.state is BreakerState.CLOSED

    def test_park_and_resume_single_engine(self):
        sim, fleet, sensor, sink, delivered, trace, metrics = build_push_world(
            push_policy=PushPolicy(safety_net_interval=600.0),
        )
        engine = fleet.shards[0]
        sim.run_until(1.0)  # registration polls create the identity
        self.trip(engine, SENSOR, sim)
        sensor.ingest_event("tick", {"n": 1})
        sim.run_until(5.0)
        # parked, not processed: no delivery, the shared suppression
        # dict holds the identity, and both counter families ticked
        assert delivered == []
        assert engine.realtime_hints_suppressed == 1
        assert SENSOR in engine._suppressed_hints
        stats = engine.stats()
        assert stats["push_notifications_parked"] == 1
        assert stats["push_notifications_received"] == 1
        assert stats["push_events_ingested"] == 0
        # heal well past the recovery timeout; the CLOSED transition
        # resumes the parked identity as a fast poll
        sim.run_until(5.0 + engine.config.breaker_policy.recovery_timeout)
        self.heal(engine, SENSOR, sim)
        sim.run_until(sim.now + 5.0)
        assert engine.realtime_hints_resumed == 1
        assert [n for _, n in delivered] == ["1"]
        assert engine.actions_dispatched == engine.actions_delivered == 1

    def test_park_and_resume_round_robin_receiving_shard(self):
        """round_robin has no home shard: the push lands on the
        last-published shard, parks there, and resumes there — sibling
        shards are untouched and fall back to the safety-net sweep."""
        sim, fleet, sensor, sink, delivered, trace, metrics = build_push_world(
            push_policy=PushPolicy(safety_net_interval=600.0),
            num_shards=2, shard_strategy="round_robin", applets=2,
        )
        receiving = fleet.shards[-1]  # last publisher wins the contract
        other = fleet.shards[0]
        sim.run_until(1.0)
        self.trip(receiving, SENSOR, sim)
        sensor.ingest_event("tick", {"n": 1})
        sim.run_until(5.0)
        assert delivered == []
        assert receiving.stats()["push_notifications_parked"] == 1
        assert receiving.realtime_hints_suppressed == 1
        assert other.realtime_hints_suppressed == 0
        assert other.stats()["push_notifications_received"] == 0
        sim.run_until(5.0 + receiving.config.breaker_policy.recovery_timeout)
        self.heal(receiving, SENSOR, sim)
        sim.run_until(sim.now + 5.0)
        # only the receiving shard's applet resumed via fast poll; the
        # other shard's applet waits for its (long) safety-net poll
        assert receiving.realtime_hints_resumed == 1
        assert len(delivered) == 1
        assert receiving.actions_delivered == 1
        assert other.actions_delivered == 0
        # fleet-wide conservation still holds mid-degradation
        stats = fleet.stats()
        assert stats["actions_dispatched"] == (
            stats["actions_delivered"] + stats["actions_in_retry"]
            + stats["dead_letters"] + stats["actions_in_replay"]
        )
