"""Unit and property tests for multi-engine sharding (docs/SHARDING.md).

Covers the :class:`~repro.engine.sharding.ShardedEngine` coordinator:
seed-stable assignment, partition completeness, strategy behaviour
(including popularity_balanced skew bounds), per-shard isolation of
breakers / RNGs / polling policies / metrics scopes, the shard snapshot
algebra (commutative merge), and the ``num_shards=1 ≡ plain engine``
equivalence.  The isolation regressions exist because the historical
failure mode — mutable state shared through a cloned prototype or a
module global — is invisible in single-engine suites.
"""

import functools
from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ActionRef,
    AdaptivePollingPolicy,
    BreakerPolicy,
    BreakerState,
    EngineConfig,
    FixedPollingPolicy,
    IftttEngine,
    PollingPolicy,
    SHARD_STRATEGIES,
    ShardedEngine,
    TriggerRef,
    merged_fleet_snapshot,
    shard_snapshot,
    stable_service_hash,
)
from repro.engine.oauth import OAuthAuthority
from repro.engine.sharding import APPLET_ID_STRIDE, shard_metric_ids
from repro.net import Address, FixedLatency, Network
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator

N_SERVICES = 8


@dataclass
class FleetWorld:
    sim: Simulator
    net: Network
    fleet: ShardedEngine
    services: List[PartnerService]
    delivered: List[dict]
    metrics: MetricsRegistry


def build_fleet(
    num_shards=4, strategy="service_hash", n_services=N_SERVICES, seed=3,
    poll_interval=5.0,
) -> FleetWorld:
    """A fleet plus ``n_services`` dual-role (trigger+action) services."""
    sim = Simulator()
    rng = Rng(seed=seed, name="sharding-test")
    metrics = MetricsRegistry()
    sim.metrics = metrics
    net = Network(sim, rng.fork("network"), metrics=metrics)
    config = EngineConfig(
        poll_policy=FixedPollingPolicy(poll_interval), initial_poll_delay=0.5,
        num_shards=num_shards, shard_strategy=strategy,
    )
    fleet = ShardedEngine(net, config=config, rng=rng.fork("engine"))
    delivered: List[dict] = []
    services = []
    for i in range(n_services):
        service = net.add_node(PartnerService(
            Address(f"svc{i}.cloud"), slug=f"svc{i}", service_time=0.0,
        ))
        service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
        service.add_action(ActionEndpoint(
            slug="record", name="Record",
            executor=lambda fields, i=i: delivered.append({"svc": i, **fields}),
        ))
        for shard in fleet.shards:
            net.connect(shard.address, service.address, FixedLatency(0.01))
        fleet.publish_service(service)
        authority = OAuthAuthority(service.slug)
        authority.register_user("alice", "pw")
        fleet.connect_service("alice", service, authority, "pw")
        services.append(service)
    return FleetWorld(sim, net, fleet, services, delivered, metrics)


def install(fleet, trigger_svc: int, action_svc: int = None, name=None):
    """Install svc<i>.ping -> svc<j>.record through the coordinator."""
    if action_svc is None:
        action_svc = trigger_svc
    return fleet.install_applet(
        user="alice", name=name or f"a{trigger_svc}->{action_svc}",
        trigger=TriggerRef(f"svc{trigger_svc}", "ping"),
        action=ActionRef(f"svc{action_svc}", "record", {"n": "{{n}}"}),
    )


class TestStableServiceHash:
    def test_deterministic_across_calls(self):
        assert stable_service_hash("gmail") == stable_service_hash("gmail")

    def test_pinned_value(self):
        # Seed-stability is the whole point: a silent hash change would
        # reshuffle every fleet's assignment. Pin a concrete value.
        assert stable_service_hash("chaos_sensor0") == 3303528287

    def test_in_32_bit_range(self):
        for slug in ("a", "gmail", "weather", "x" * 100):
            assert 0 <= stable_service_hash(slug) < 2 ** 32

    @given(slug=st.text(min_size=1, max_size=30), n=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_modulo_is_valid_shard(self, slug, n):
        assert 0 <= stable_service_hash(slug) % n < n


class TestConfigValidation:
    def test_strategies_registry(self):
        assert SHARD_STRATEGIES == ("service_hash", "round_robin", "popularity_balanced")

    def test_defaults_single_shard(self):
        config = EngineConfig()
        assert config.num_shards == 1
        assert config.shard_strategy == "service_hash"

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(num_shards=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(shard_strategy="modulo")

    def test_coordinator_rejects_bad_overrides(self):
        sim = Simulator()
        net = Network(sim, Rng(1))
        with pytest.raises(ValueError):
            ShardedEngine(net, num_shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(net, shard_strategy="nope")


class TestAssignment:
    def test_service_hash_matches_hash_modulo(self):
        world = build_fleet(num_shards=4)
        for i in range(N_SERVICES):
            applet = install(world.fleet, i)
            expected = stable_service_hash(f"svc{i}") % 4
            assert world.fleet.shard_of(applet.applet_id) == expected

    def test_assignment_is_sticky(self):
        world = build_fleet(num_shards=4)
        first = install(world.fleet, 0)
        second = install(world.fleet, 0)
        assert (world.fleet.shard_of(first.applet_id)
                == world.fleet.shard_of(second.applet_id))

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_identical_seeds_identical_assignment(self, strategy):
        def run():
            world = build_fleet(num_shards=4, strategy=strategy, seed=21)
            applets = [install(world.fleet, i % N_SERVICES) for i in range(12)]
            return [world.fleet.shard_of(a.applet_id) for a in applets]

        assert run() == run()

    def test_round_robin_cycles(self):
        world = build_fleet(num_shards=4, strategy="round_robin")
        shards = [world.fleet.shard_of(install(world.fleet, 0).applet_id)
                  for _ in range(8)]
        assert shards == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_popularity_balanced_picks_least_loaded(self):
        world = build_fleet(num_shards=3, strategy="popularity_balanced")
        # Three applets of svc0 pile onto shard 0 (sticky)...
        for _ in range(3):
            assert world.fleet.shard_of(install(world.fleet, 0).applet_id) == 0
        # ...so the next two new services go to the empty shards first.
        assert world.fleet.shard_of(install(world.fleet, 1).applet_id) == 1
        assert world.fleet.shard_of(install(world.fleet, 2).applet_id) == 2

    def test_popularity_balanced_bounds_skew(self):
        # A heavy-tailed workload: one hot service (12 applets), seven
        # cold ones.  Greedy least-loaded assignment keeps every other
        # shard within one cold service of the mean, so max-min is
        # bounded by the heaviest service — not by hash luck.
        world = build_fleet(num_shards=4, strategy="popularity_balanced")
        weights = [12, 1, 1, 1, 1, 1, 1, 1]
        for svc, weight in enumerate(weights):
            for _ in range(weight):
                install(world.fleet, svc)
        loads = world.fleet.shard_loads()
        assert sum(loads) == sum(weights)
        assert max(loads) - min(loads) <= max(weights)
        cold = sorted(loads)[:-1]            # shards without the hot service
        assert max(cold) - min(cold) <= 1    # cold shards stay near-even

    def test_assignments_cover_only_trigger_services(self):
        world = build_fleet(num_shards=4)
        install(world.fleet, 0, action_svc=5)
        assert set(world.fleet.assignments()) == {"svc0"}

    def test_uninstall_releases_load(self):
        world = build_fleet(num_shards=4)
        applet = install(world.fleet, 0)
        assert sum(world.fleet.shard_loads()) == 1
        world.fleet.uninstall_applet(applet.applet_id)
        assert sum(world.fleet.shard_loads()) == 0
        with pytest.raises(KeyError):
            world.fleet.shard_of(applet.applet_id)

    def test_engine_for_owns_the_applet(self):
        world = build_fleet(num_shards=4)
        for i in range(N_SERVICES):
            applet = install(world.fleet, i)
            owner = world.fleet.engine_for(applet.applet_id)
            assert applet.applet_id in [a.applet_id for a in owner.applets]

    def test_load_skew_metric(self):
        world = build_fleet(num_shards=2, strategy="round_robin")
        assert world.fleet.load_skew() == 0.0
        install(world.fleet, 0)
        install(world.fleet, 1)
        assert world.fleet.load_skew() == pytest.approx(1.0)

    @given(
        data=st.data(),
        num_shards=st.integers(1, 5),
        strategy=st.sampled_from(SHARD_STRATEGIES),
    )
    @settings(max_examples=20, deadline=None)
    def test_assignment_is_a_partition(self, data, num_shards, strategy):
        """Every applet lands on exactly one shard; nothing is dropped."""
        triggers = data.draw(st.lists(
            st.integers(0, N_SERVICES - 1), min_size=1, max_size=20))
        world = build_fleet(num_shards=num_shards, strategy=strategy)
        installed = [install(world.fleet, svc) for svc in triggers]
        ids = [a.applet_id for a in installed]
        assert len(set(ids)) == len(ids)
        per_shard = [{a.applet_id for a in shard.applets}
                     for shard in world.fleet.shards]
        for a, b in zip(per_shard, per_shard[1:]):
            assert not (a & b)
        assert set().union(*per_shard) == set(ids)
        assert world.fleet.shard_loads() == [len(s) for s in per_shard]
        for applet in installed:
            owner = world.fleet.shard_of(applet.applet_id)
            assert applet.applet_id in per_shard[owner]


class TestIsolation:
    """Regressions for the shared-mutable-state bug class.

    A breaker, RNG, polling policy, or counter reachable from two
    engines means one service's bad day corrupts an unrelated engine's
    behaviour — precisely what sharding exists to prevent.
    """

    def test_divergent_fault_histories_stay_separate(self):
        # Two engines, same (frozen, shareable) policies: hammering one
        # engine's breaker must leave the other's closed and untouched.
        sim = Simulator()
        net = Network(sim, Rng(5))
        config = EngineConfig(breaker_policy=BreakerPolicy(failure_threshold=3))
        a = net.add_node(IftttEngine(Address("a.cloud"), config=config, rng=Rng(1)))
        b = net.add_node(IftttEngine(Address("b.cloud"), config=config, rng=Rng(2)))
        for t in (1.0, 2.0, 3.0):
            a.breaker_for("svc").record_failure(t)
        assert a.breaker_for("svc").state is BreakerState.OPEN
        assert b.breaker_for("svc").state is BreakerState.CLOSED
        assert b.breaker_for("svc").transitions == []
        assert b.breaker_for("svc").shed_count == 0
        assert a.breaker_for("svc") is not b.breaker_for("svc")

    def test_fleet_breakers_are_per_shard(self):
        world = build_fleet(num_shards=4)
        victim = world.fleet.shards[2]
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            victim.breaker_for("svc0").record_failure(t)
        assert victim.breaker_states()["svc0"] == "open"
        for index, shard in enumerate(world.fleet.shards):
            if index != 2:
                assert shard.breaker_states() == {}
        states = world.fleet.breaker_states()
        assert states[2]["svc0"] == "open"

    def test_base_clone_returns_fresh_copy(self):
        # Regression: the base PollingPolicy.clone() used to return
        # ``self``, silently sharing state across every applet cloned
        # from one prototype.  A stateful subclass that neglects to
        # override clone() must still get per-clone scalar state.
        class EwmaPolicy(PollingPolicy):
            def __init__(self):
                self.activity = 0.0

            def next_interval(self, rng):
                return 5.0

            def observe_events(self, count):
                self.activity += count

        prototype = EwmaPolicy()
        first, second = prototype.clone(), prototype.clone()
        assert first is not prototype and first is not second
        first.observe_events(3)
        assert second.activity == 0.0
        assert prototype.activity == 0.0

    def test_adaptive_policy_state_not_shared_across_engines(self):
        # One shared EngineConfig prototype, two engines: learning on
        # engine A's applet must not tilt engine B's polling.
        sim = Simulator()
        net = Network(sim, Rng(5))
        config = EngineConfig(poll_policy=AdaptivePollingPolicy(),
                              initial_poll_delay=0.5)
        engines = []
        for name in ("a", "b"):
            engine = net.add_node(IftttEngine(
                Address(f"{name}.cloud"), config=config, rng=Rng(1)))
            service = net.add_node(PartnerService(
                Address(f"svc-{name}.cloud"), slug="svc", service_time=0.0))
            service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
            service.add_action(ActionEndpoint(slug="record", name="Record",
                                              executor=lambda f: None))
            net.connect(engine.address, service.address, FixedLatency(0.01))
            engine.publish_service(service)
            authority = OAuthAuthority("svc")
            authority.register_user("alice", "pw")
            engine.connect_service("alice", service, authority, "pw")
            engines.append(engine)
        applets = [
            engine.install_applet(
                user="alice", name="p", trigger=TriggerRef("svc", "ping"),
                action=ActionRef("svc", "record", {}),
            )
            for engine in engines
        ]
        policy_a = engines[0].policy_of(applets[0].applet_id)
        policy_b = engines[1].policy_of(applets[1].applet_id)
        assert policy_a is not policy_b is not config.poll_policy
        policy_a.observe_events(5)
        assert policy_a.activity > 0.0
        assert policy_b.activity == 0.0
        assert config.poll_policy.activity == 0.0

    def test_shard_poll_policies_are_distinct_objects(self):
        world = build_fleet(num_shards=4)
        prototypes = {id(shard.config.poll_policy) for shard in world.fleet.shards}
        assert len(prototypes) == 4

    def test_shard_rngs_are_independent_forks(self):
        world = build_fleet(num_shards=4)
        rngs = [shard.rng for shard in world.fleet.shards]
        assert len({id(r) for r in rngs}) == 4
        draws = [r.uniform(0, 1) for r in rngs]
        assert len(set(draws)) == 4

    def test_applet_id_ranges_are_disjoint(self):
        world = build_fleet(num_shards=3, strategy="round_robin")
        applets = [install(world.fleet, 0) for _ in range(9)]
        for applet in applets:
            shard = world.fleet.shard_of(applet.applet_id)
            start = 100000 + shard * APPLET_ID_STRIDE
            assert start <= applet.applet_id < start + APPLET_ID_STRIDE
        assert len({a.applet_id for a in applets}) == 9

    def test_metrics_namespaces_are_per_shard(self):
        world = build_fleet(num_shards=3)
        assert [shard.metrics_namespace for shard in world.fleet.shards] == [
            "engine.shard0", "engine.shard1", "engine.shard2"]

    def test_every_shard_caches_its_own_token(self):
        world = build_fleet(num_shards=3)
        tokens = [shard.tokens.lookup("alice", "svc0")
                  for shard in world.fleet.shards]
        assert all(tokens)
        assert len(set(tokens)) == 3  # separate OAuth flows, separate tokens


class TestHintTargeting:
    def test_service_hash_home_shard_publishes_last(self):
        world = build_fleet(num_shards=4)
        for i, service in enumerate(world.services):
            home = stable_service_hash(service.slug) % 4
            assert service.engine_address == world.fleet.shards[home].address

    def test_popularity_balanced_retargets_on_first_install(self):
        world = build_fleet(num_shards=4, strategy="popularity_balanced")
        service = world.services[5]
        applet = install(world.fleet, 5)
        home = world.fleet.shard_of(applet.applet_id)
        assert service.engine_address == world.fleet.shards[home].address

    def test_all_shard_keys_accepted(self):
        world = build_fleet(num_shards=4)
        service = world.services[0]
        assert len(service.service_keys) == 4
        for shard in world.fleet.shards:
            assert shard.service_registration("svc0").service_key in service.service_keys


def run_fleet_workload(num_shards, seed=11, events=6, until=40.0):
    """Install one applet per service, fire events, run, and snapshot."""
    world = build_fleet(num_shards=num_shards, seed=seed)
    applets = [install(world.fleet, i) for i in range(N_SERVICES)]
    for i in range(events):
        world.sim.schedule(2.0 + i, world.services[i % N_SERVICES].ingest_event,
                           "ping", {"n": i})
    world.sim.run_until(until)
    return world, applets


@functools.lru_cache(maxsize=None)
def _snapshot_fixture():
    """One cached 4-shard run used by the snapshot-algebra tests."""
    world, _ = run_fleet_workload(num_shards=4)
    return world.metrics.snapshot(), world.fleet.stats()


class TestSnapshotAlgebra:
    def test_shard_snapshot_rebases_names(self):
        snapshot, _ = _snapshot_fixture()
        for shard_id in shard_metric_ids(snapshot):
            rebased = shard_snapshot(snapshot, shard_id)
            assert rebased["metrics"], f"shard {shard_id} has no metrics"
            for entry in rebased["metrics"]:
                assert entry["name"].startswith("engine.")
                assert not entry["name"].startswith("engine.shard")

    def test_shard_metric_ids_found(self):
        snapshot, _ = _snapshot_fixture()
        assert shard_metric_ids(snapshot) == [0, 1, 2, 3]

    def test_merged_totals_match_fleet_stats(self):
        snapshot, stats = _snapshot_fixture()
        merged = merged_fleet_snapshot(snapshot)
        delivered = sum(e["value"] for e in merged["metrics"]
                        if e["name"] == "engine.actions_delivered")
        dispatched = sum(e["value"] for e in merged["metrics"]
                         if e["name"] == "engine.actions_dispatched")
        assert delivered == stats["actions_delivered"] > 0
        assert dispatched == stats["actions_dispatched"]

    def test_merge_accepts_registry_or_snapshot(self):
        world, _ = run_fleet_workload(num_shards=2, seed=23)
        assert (merged_fleet_snapshot(world.metrics)
                == merged_fleet_snapshot(world.metrics.snapshot()))

    def test_no_shard_metrics_merges_empty(self):
        assert merged_fleet_snapshot({"metrics": []}) == {"metrics": []}

    @given(order=st.permutations([0, 1, 2, 3]))
    @settings(max_examples=24, deadline=None)
    def test_merge_is_commutative_over_shard_order(self, order):
        snapshot, _ = _snapshot_fixture()
        shards = {i: shard_snapshot(snapshot, i) for i in range(4)}
        reordered = merge_snapshots(*(shards[i] for i in order))
        assert reordered == merged_fleet_snapshot(snapshot)

    def test_single_shard_merge_is_identity(self):
        world, _ = run_fleet_workload(num_shards=1, seed=17)
        snapshot = world.metrics.snapshot()
        merged = merged_fleet_snapshot(snapshot)
        rebased = merge_snapshots(shard_snapshot(snapshot, 0))
        assert merged == rebased


class TestSingleShardEquivalence:
    """num_shards=1 must behave exactly like one plain engine."""

    @staticmethod
    def _drive(engine_like, sim, services, events=6):
        applets = []
        for i in range(N_SERVICES):
            applets.append(engine_like.install_applet(
                user="alice", name=f"a{i}",
                trigger=TriggerRef(f"svc{i}", "ping"),
                action=ActionRef(f"svc{i}", "record", {"n": "{{n}}"}),
            ))
        for i in range(events):
            sim.schedule(2.0 + i, services[i % N_SERVICES].ingest_event,
                         "ping", {"n": i})
        sim.run_until(40.0)
        return applets

    def _plain_world(self, seed=11):
        sim = Simulator()
        rng = Rng(seed=seed, name="sharding-test")
        metrics = MetricsRegistry()
        sim.metrics = metrics
        net = Network(sim, rng.fork("network"), metrics=metrics)
        config = EngineConfig(poll_policy=FixedPollingPolicy(5.0),
                              initial_poll_delay=0.5)
        engine = net.add_node(IftttEngine(
            Address("engine0.cloud"), config=config, rng=rng.fork("engine")))
        delivered: List[dict] = []
        services = []
        for i in range(N_SERVICES):
            service = net.add_node(PartnerService(
                Address(f"svc{i}.cloud"), slug=f"svc{i}", service_time=0.0))
            service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
            service.add_action(ActionEndpoint(
                slug="record", name="Record",
                executor=lambda fields, i=i: delivered.append({"svc": i, **fields})))
            net.connect(engine.address, service.address, FixedLatency(0.01))
            engine.publish_service(service)
            authority = OAuthAuthority(service.slug)
            authority.register_user("alice", "pw")
            engine.connect_service("alice", service, authority, "pw")
            services.append(service)
        return sim, engine, services, delivered

    def test_same_deliveries_and_counters(self):
        world = build_fleet(num_shards=1, seed=11)
        self._drive(world.fleet, world.sim, world.services)
        sim, engine, services, delivered = self._plain_world(seed=11)
        self._drive(engine, sim, services)
        assert world.delivered == delivered
        fleet_stats = world.fleet.stats()
        plain_stats = engine.stats()
        assert fleet_stats == plain_stats

    def test_single_shard_trivia(self):
        world = build_fleet(num_shards=1, seed=11)
        applet = install(world.fleet, 0)
        assert world.fleet.shard_of(applet.applet_id) == 0
        assert world.fleet.num_shards == 1
        for service in world.services:
            assert len(service.service_keys) == 1


class TestFleetAccounting:
    def test_stats_sum_shards_but_not_services(self):
        world, _ = run_fleet_workload(num_shards=4)
        stats = world.fleet.stats()
        per_shard = world.fleet.shard_stats()
        assert stats["applets"] == sum(s["applets"] for s in per_shard) == N_SERVICES
        assert stats["actions_delivered"] == sum(
            s["actions_delivered"] for s in per_shard)
        # Every shard publishes the same catalogue; don't quadruple-count.
        assert stats["services"] == N_SERVICES
        assert all(s["services"] == N_SERVICES for s in per_shard)

    def test_conservation_zero_when_healthy(self):
        world, _ = run_fleet_workload(num_shards=4)
        conservation = world.fleet.conservation()
        assert conservation["shard_lost"] == [0, 0, 0, 0]
        assert conservation["fleet_lost"] == 0

    def test_dead_letters_empty_when_healthy(self):
        world, _ = run_fleet_workload(num_shards=4)
        assert world.fleet.dead_letters == []

    def test_applets_property_spans_fleet(self):
        world, applets = run_fleet_workload(num_shards=4)
        assert ({a.applet_id for a in world.fleet.applets}
                == {a.applet_id for a in applets})

    def test_repr(self):
        world = build_fleet(num_shards=4)
        assert "shards=4" in repr(world.fleet)
        assert "service_hash" in repr(world.fleet)

    def test_not_collected_by_pytest(self):
        assert ShardedEngine.__test__ is False
