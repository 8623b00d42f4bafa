"""Poll/hint/push delivery equivalence (ISSUE 8's headline suite).

Push-first delivery changes *when* and *how* events reach the engine —
it must never change *what* gets delivered.  This suite pins four
properties of :mod:`repro.engine.push`:

(a) **Multiset identity** — for arbitrary seeds, corpus shapes, and
    publication schedules, the three delivery modes fire the identical
    action multiset (hypothesis, end to end over a sharded fleet).
(b) **Conservation** — ``dispatched == delivered + in_retry +
    dead_lettered + in_replay`` per shard and merged, across all three
    shard strategies, in every mode.
(c) **T2A stochastic ordering** — trigger-to-action latency quartiles
    order push <= hint <= poll: hints skip the polling wait but still
    cost a fetch round trip; pushes carry payloads and skip the poll
    entirely.
(d) **Degraded-push restoration** — a service shed to the poll rung
    draws intervals from the *exact* base polling distribution (the
    push mirror of PR 6's restoration proof), and re-earns the push
    rung (constant safety-net interval, no RNG) once its backlog
    drains below the low watermark.
"""

from statistics import quantiles

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ActionRef,
    EngineConfig,
    FixedPollingPolicy,
    ProductionPollingPolicy,
    PushDeliveryPolicy,
    PushPolicy,
    SHARD_STRATEGIES,
    ShardedEngine,
    TriggerRef,
)
from repro.engine.oauth import OAuthAuthority
from repro.engine.push import DELIVERY_MODES, RUNG_HINT, RUNG_POLL, RUNG_PUSH
from repro.engine.delivery import sampled_interval_quartiles
from repro.net import Address, FixedLatency, Network
from repro.obs.metrics import MetricsRegistry
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator


def engine_config_for(mode: str, **overrides) -> EngineConfig:
    """An engine config realizing one delivery mode (poll/hint/push)."""
    assert mode in DELIVERY_MODES
    defaults = dict(
        poll_policy=FixedPollingPolicy(20.0),
        initial_poll_delay=0.5,
        poll_timeout=10.0,
        action_timeout=10.0,
        realtime_allowlist=None if mode == "hint" else frozenset(),
        push_policy=PushPolicy() if mode == "push" else None,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def run_world(
    mode: str,
    *,
    strategy: str = "service_hash",
    seed: int = 11,
    num_shards: int = 3,
    n_services: int = 3,
    per_service: int = 2,
    publication_times=(2.0, 5.0, 8.0, 11.0, 14.0, 17.0),
    poll_interval: float = 20.0,
    link_latency: float = 0.05,
    push_policy: PushPolicy = None,
):
    """One sharded fleet run in one delivery mode; returns the evidence.

    ``n_services`` sensor/sink services, ``per_service`` applets each,
    publications round-robined over the services.  The horizon covers
    the last publication plus a full poll interval plus settle margin,
    so poll mode observes everything too.

    Push mode's safety net is pinned to the poll cadence: correctness
    never depends on a push *arriving* (under ``round_robin`` no shard
    owns a service, so a push reaches only the receiving shard's
    applets — sibling shards recover via the safety-net sweep), so
    equality of the sweep and poll cadences bounds eventual delivery by
    the same horizon in all three modes.
    """
    sim = Simulator()
    rng = Rng(seed=seed, name="push-equiv")
    metrics = MetricsRegistry()
    sim.metrics = metrics
    net = Network(sim, rng.fork("network"), metrics=metrics)
    config = engine_config_for(
        mode,
        poll_policy=FixedPollingPolicy(poll_interval),
        num_shards=num_shards,
        shard_strategy=strategy,
        push_policy=(
            (push_policy or PushPolicy(safety_net_interval=poll_interval))
            if mode == "push" else None
        ),
    )
    fleet = ShardedEngine(net, config=config, rng=rng.fork("engine"))
    delivered = []  # (service_index, n, delivered_at)
    services = []
    for i in range(n_services):
        service = net.add_node(PartnerService(
            Address(f"svc{i}.cloud"), slug=f"svc{i}", service_time=0.0,
            realtime=mode == "hint", push=mode == "push",
        ))
        service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
        service.add_action(ActionEndpoint(
            slug="record", name="Record",
            executor=lambda fields, i=i: delivered.append(
                (i, fields["n"], sim.now)
            ),
        ))
        for shard in fleet.shards:
            net.connect(shard.address, service.address, FixedLatency(link_latency))
        fleet.publish_service(service)
        authority = OAuthAuthority(service.slug)
        authority.register_user("alice", "pw")
        fleet.connect_service("alice", service, authority, "pw")
        services.append(service)
    for i in range(n_services):
        for a in range(per_service):
            fleet.install_applet(
                user="alice", name=f"svc{i}-applet{a}",
                trigger=TriggerRef(f"svc{i}", "ping"),
                action=ActionRef(f"svc{i}", "record", {"n": "{{n}}"}),
            )
    published_at = {}
    for k, at in enumerate(publication_times):
        target = k % n_services
        published_at[(target, str(k))] = at
        sim.schedule(
            at, services[target].ingest_event, "ping", {"n": k},
            label=f"publish#{k}",
        )
    horizon = max(publication_times) + poll_interval + 15.0
    sim.run_until(horizon)
    per_shard = [
        {
            "dispatched": shard.actions_dispatched,
            "delivered": shard.actions_delivered,
            "in_retry": shard.actions_in_retry,
            "dead_lettered": len(shard.dead_letters),
            "in_replay": shard.actions_in_replay,
        }
        for shard in fleet.shards
    ]
    return {
        "multiset": sorted((i, n) for i, n, _ in delivered),
        "latencies": sorted(
            at - published_at[(i, n)] for i, n, at in delivered
        ),
        "per_shard": per_shard,
        "fleet_stats": fleet.stats(),
        "expected_deliveries": len(publication_times) * per_service,
    }


def assert_conserved(per_shard) -> None:
    """Per-shard and merged conservation: no action silently lost."""
    merged = {key: 0 for key in per_shard[0]}
    for stats in per_shard:
        residual = (
            stats["dispatched"] - stats["delivered"] - stats["in_retry"]
            - stats["dead_lettered"] - stats["in_replay"]
        )
        assert residual == 0, f"shard conservation violated: {stats}"
        for key, value in stats.items():
            merged[key] += value
    assert merged["dispatched"] == (
        merged["delivered"] + merged["in_retry"]
        + merged["dead_lettered"] + merged["in_replay"]
    )


class TestMultisetIdentity:
    """(a) all three modes fire the identical action multiset."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_services=st.integers(min_value=1, max_value=4),
        per_service=st.integers(min_value=1, max_value=3),
        ticks=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=6, deadline=None)
    def test_arbitrary_schedules(self, seed, n_services, per_service, ticks):
        times = tuple(sorted(2.0 + t for t in ticks))
        runs = {
            mode: run_world(
                mode, seed=seed, n_services=n_services,
                per_service=per_service, publication_times=times,
            )
            for mode in DELIVERY_MODES
        }
        # every publication reaches every subscribed applet exactly once
        for mode, run in runs.items():
            assert len(run["multiset"]) == run["expected_deliveries"], mode
            assert_conserved(run["per_shard"])
        assert runs["poll"]["multiset"] == runs["hint"]["multiset"]
        assert runs["poll"]["multiset"] == runs["push"]["multiset"]

    def test_push_skips_the_poll_fetch(self):
        run = run_world("push")
        stats = run["fleet_stats"]
        assert stats["push_notifications_received"] > 0
        # ingestion counts applet deliveries (fan-out included)
        assert stats["push_events_ingested"] == len(run["multiset"])
        assert stats["push_shed_to_poll"] == 0
        assert stats["push_degraded_to_hint"] == 0


class TestConservation:
    """(b) conservation per shard and merged, all 3 shard strategies."""

    @pytest.mark.parametrize("strategy", sorted(SHARD_STRATEGIES))
    @pytest.mark.parametrize("mode", DELIVERY_MODES)
    def test_no_action_silently_lost(self, mode, strategy):
        run = run_world(mode, strategy=strategy, seed=2017)
        assert_conserved(run["per_shard"])
        assert len(run["multiset"]) == run["expected_deliveries"]

    @pytest.mark.parametrize("strategy", sorted(SHARD_STRATEGIES))
    def test_multiset_identity_every_topology(self, strategy):
        runs = [
            run_world(mode, strategy=strategy, seed=5)
            for mode in DELIVERY_MODES
        ]
        assert runs[0]["multiset"] == runs[1]["multiset"] == runs[2]["multiset"]


class TestT2AOrdering:
    """(c) T2A quartiles order push <= hint <= poll."""

    def test_stochastic_ordering(self):
        # Fixed link latency (50 ms one-way) and a 20 ms coalescing
        # window make the structural ordering visible per-sample: a push
        # pays notify + window + action; a hint additionally pays the
        # fetch-poll round trip; polling pays the schedule wait.
        q = {}
        for mode in DELIVERY_MODES:
            run = run_world(
                mode, num_shards=1, n_services=2, per_service=2,
                publication_times=tuple(2.0 + 4.0 * k for k in range(10)),
                poll_interval=60.0, link_latency=0.05,
                push_policy=PushPolicy(batch_window=0.02),
            )
            assert len(run["latencies"]) == run["expected_deliveries"]
            q[mode] = quantiles(run["latencies"], n=4)
        for i in range(3):
            assert q["push"][i] <= q["hint"][i] <= q["poll"][i]
        # and the gaps are structural, not noise: hints save the polling
        # wait; pushes additionally save the fetch round trip
        assert q["poll"][1] > 10.0
        assert q["hint"][1] < 1.0
        assert q["push"][1] < q["hint"][1]


class TestDegradedPushRestoration:
    """(d) the poll rung restores the exact base interval distribution."""

    def test_rung_decides_the_distribution(self):
        from repro.engine.push import PushServiceState

        base = ProductionPollingPolicy()
        policy = PushPolicy()
        state = PushServiceState("svc")
        wrapped = PushDeliveryPolicy(base.clone(), state, policy)
        # push rung: the constant safety net, no RNG consumption
        assert state.rung == RUNG_PUSH
        assert sampled_interval_quartiles(wrapped.clone()) == (
            policy.safety_net_interval,
        ) * 3
        # poll rung: the base distribution, exactly (same seeded RNG,
        # same draws — the wrapper adds nothing)
        state.rung = RUNG_POLL
        assert sampled_interval_quartiles(wrapped.clone()) == (
            sampled_interval_quartiles(base.clone())
        )
        # heal: back to the safety net
        state.rung = RUNG_PUSH
        assert sampled_interval_quartiles(wrapped.clone()) == (
            policy.safety_net_interval,
        ) * 3

    def test_ladder_walks_down_and_recovers_through_the_controller(self):
        """Flood a real engine's controller past both watermarks and
        watch the rung walk push -> hint -> poll, then drain and watch
        it re-earn push (hysteresis: no flapping at the high mark)."""
        sim = Simulator()
        rng = Rng(seed=3, name="ladder")
        net = Network(sim, rng.fork("net"))
        from repro.engine.engine import IftttEngine

        policy = PushPolicy(low_watermark=4, high_watermark=8, max_batch=3)
        engine = net.add_node(IftttEngine(
            Address("engine.cloud"),
            config=engine_config_for("push", push_policy=policy),
            rng=rng.fork("engine"),
        ))
        controller = engine.push
        state = controller.state_for("svc")
        def wire(k):
            return {"meta": {"id": f"e{k}", "timestamp": 0}, "n": k}

        for k in range(12):
            controller._admit(state, "identity", wire(k))
        # 0..3 admitted at push, 4..7 degraded (backlog in [low, high)),
        # 8..11 shed once the backlog reached the high mark
        assert state.rung == RUNG_POLL
        assert len(state.pending) == 8
        assert state.degraded_to_hint == 4
        assert state.shed_to_poll == 4
        # hysteresis: still poll-rung while the backlog sits between
        # the watermarks
        state.pending.popleft()
        state.pending.popleft()
        controller._refresh_rung(state)
        assert state.rung == RUNG_POLL
        # draining below low re-earns push
        while len(state.pending) >= policy.low_watermark:
            state.pending.popleft()
        controller._refresh_rung(state)
        assert state.rung == RUNG_PUSH

    def test_intermediate_rung_is_hint(self):
        from repro.engine.push import PushServiceState, PushController

        class _Eng:
            metrics = None
            trace = None

        controller = PushController(
            _Eng(), PushPolicy(low_watermark=2, high_watermark=10)
        )
        state = PushServiceState("svc")
        state.pending.extend([("i", None)] * 3)  # between the watermarks
        controller._refresh_rung(state)
        assert state.rung == RUNG_HINT
