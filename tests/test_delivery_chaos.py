"""Chaos regressions for health-aware adaptive delivery.

The "no retry storm" guarantee: during a brownout, an adaptive engine
must back off the victim service hard (≥3× fewer requests inside the
fault window than a non-adaptive engine sends) *without* hurting anyone
else — zero overload dead letters on healthy services, healthy-shard
T2A p95 within 5% of the non-adaptive run — and after heal the victim's
poll-interval distribution must converge back to its baseline (§4),
across every shard strategy.

These are the acceptance criteria `make degrade-check` enforces on the
CLI path; here they are pinned as regressions with the library API.
"""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.delivery import DeliveryPolicy
from repro.engine.poller import FixedPollingPolicy
from repro.engine.sharding import SHARD_STRATEGIES
from repro.reporting.adaptive_report import (
    MAX_QUARTILE_DRIFT,
    MIN_DROP_RATIO,
    adaptive_delivery_violations,
    drop_ratio,
    render_adaptive_comparison,
)
from repro.simcore.rng import quantiles
from repro.testbed.chaos import (
    SENSOR_SLUG,
    ChaosWorld,
    chaos_scenario,
    run_chaos_scenario,
    run_sharded_chaos_scenario,
)

SEED = 7
#: The sharded worlds retarget the brownout onto the victim pair's sensor.
SHARDED_VICTIM = f"{SENSOR_SLUG}0"


def _p95(values):
    assert values, "phase produced no T2A samples"
    return quantiles(values, (0.95,))[0]


@pytest.fixture(scope="module")
def plain_runs():
    adaptive = run_chaos_scenario("brownout", seed=SEED, delivery=DeliveryPolicy())
    baseline = run_chaos_scenario("brownout", seed=SEED)
    return adaptive, baseline


class TestNoRetryStormPlain:
    def test_victim_request_rate_drops_3x(self, plain_runs):
        adaptive, baseline = plain_runs
        assert baseline.fault_window_requests[SENSOR_SLUG] > 0
        assert drop_ratio(baseline, adaptive, SENSOR_SLUG) >= MIN_DROP_RATIO

    def test_no_overload_dead_letters_on_healthy_services(self, plain_runs):
        adaptive, _ = plain_runs
        for slug, count in adaptive.overload_dead_letters_by_service.items():
            if slug != SENSOR_SLUG:
                assert count == 0, f"healthy service {slug} dead-lettered overload"

    def test_conservation_holds_under_adaptation(self, plain_runs):
        adaptive, baseline = plain_runs
        assert adaptive.actions_silently_lost == 0
        assert baseline.actions_silently_lost == 0

    def test_stretch_fully_decayed_after_heal(self, plain_runs):
        adaptive, _ = plain_runs
        assert adaptive.post_heal_stretch, "adaptive run recorded no health"
        assert all(s == 1.0 for s in adaptive.post_heal_stretch.values())

    def test_interval_distribution_restored(self, plain_runs):
        adaptive, _ = plain_runs
        assert adaptive.post_heal_quartiles is not None
        assert adaptive.baseline_quartiles is not None
        assert adaptive.post_heal_quartile_drift <= MAX_QUARTILE_DRIFT

    def test_acceptance_checker_agrees(self, plain_runs):
        adaptive, baseline = plain_runs
        assert adaptive_delivery_violations(adaptive, baseline, {SENSOR_SLUG}) == []

    def test_baseline_run_carries_no_adaptive_readout(self, plain_runs):
        _, baseline = plain_runs
        assert baseline.post_heal_quartiles is None
        assert baseline.post_heal_stretch == {}

    def test_comparison_table_renders(self, plain_runs):
        adaptive, baseline = plain_runs
        table = render_adaptive_comparison(adaptive, baseline)
        assert SENSOR_SLUG in table
        assert "drop" in table


class TestExplicitEngineConfig:
    """Convergence holds with an explicitly passed engine config."""

    def test_convergence_with_explicit_config(self):
        config = EngineConfig(
            poll_policy=FixedPollingPolicy(5.0),
            initial_poll_delay=0.5,
            poll_timeout=10.0,
            action_timeout=10.0,
        )
        world = ChaosWorld(seed=SEED, engine_config=config, delivery=DeliveryPolicy())
        result = world.run(chaos_scenario("brownout"))
        assert result.actions_silently_lost == 0
        assert all(s == 1.0 for s in result.post_heal_stretch.values())
        assert result.post_heal_quartile_drift <= MAX_QUARTILE_DRIFT


@pytest.fixture(scope="module", params=sorted(SHARD_STRATEGIES))
def sharded_runs(request):
    strategy = request.param
    adaptive = run_sharded_chaos_scenario(
        "brownout", seed=SEED, shard_strategy=strategy, delivery=DeliveryPolicy()
    )
    baseline = run_sharded_chaos_scenario("brownout", seed=SEED, shard_strategy=strategy)
    return strategy, adaptive, baseline


class TestNoRetryStormSharded:
    """The guarantee holds per shard strategy, and adaptation on the
    victim shard never bleeds into healthy shards (satellites 3+4)."""

    def test_same_victim_shard(self, sharded_runs):
        _, adaptive, baseline = sharded_runs
        assert adaptive.victim_shard == baseline.victim_shard
        assert adaptive.assignments == baseline.assignments

    def test_victim_request_rate_drops_3x(self, sharded_runs):
        _, adaptive, baseline = sharded_runs
        assert baseline.fault_window_requests[SHARDED_VICTIM] > 0
        assert drop_ratio(baseline, adaptive, SHARDED_VICTIM) >= MIN_DROP_RATIO

    def test_healthy_shard_t2a_p95_within_5_percent(self, sharded_runs):
        _, adaptive, baseline = sharded_runs
        adaptive_p95 = _p95(adaptive.t2a_values(adaptive.healthy_shards))
        baseline_p95 = _p95(baseline.t2a_values(baseline.healthy_shards))
        assert adaptive_p95 == pytest.approx(baseline_p95, rel=0.05)

    def test_no_overload_dead_letters_on_healthy_services(self, sharded_runs):
        _, adaptive, _ = sharded_runs
        for slug, count in adaptive.overload_dead_letters_by_service.items():
            if slug != SHARDED_VICTIM:
                assert count == 0, f"healthy service {slug} dead-lettered overload"

    def test_conservation_per_shard_and_merged(self, sharded_runs):
        _, adaptive, _ = sharded_runs
        assert adaptive.shard_silently_lost == [0] * adaptive.num_shards
        assert adaptive.actions_silently_lost == 0

    def test_convergence_per_strategy(self, sharded_runs):
        _, adaptive, _ = sharded_runs
        assert adaptive.post_heal_stretch, "adaptive run recorded no health"
        assert all(s == 1.0 for s in adaptive.post_heal_stretch.values())
        assert adaptive.post_heal_quartile_drift <= MAX_QUARTILE_DRIFT

    def test_acceptance_checker_agrees(self, sharded_runs):
        _, adaptive, baseline = sharded_runs
        assert adaptive_delivery_violations(adaptive, baseline, {SHARDED_VICTIM}) == []


class TestAdaptiveDeterminism:
    def test_plain_adaptive_snapshots_identical(self):
        first = run_chaos_scenario("brownout", seed=SEED, delivery=DeliveryPolicy())
        second = run_chaos_scenario("brownout", seed=SEED, delivery=DeliveryPolicy())
        assert first.snapshot == second.snapshot

    def test_sharded_adaptive_snapshots_identical(self):
        first = run_sharded_chaos_scenario(
            "brownout", seed=SEED, delivery=DeliveryPolicy()
        )
        second = run_sharded_chaos_scenario(
            "brownout", seed=SEED, delivery=DeliveryPolicy()
        )
        assert first.snapshot == second.snapshot
        assert first.merged_engine_snapshot == second.merged_engine_snapshot

    def test_adaptive_off_matches_pre_delivery_baseline(self):
        """An engine configured without a delivery policy produces the
        same snapshot whether the delivery module is imported or not —
        the controller is absent, not merely idle."""
        first = run_chaos_scenario("brownout", seed=SEED)
        second = run_chaos_scenario("brownout", seed=SEED)
        assert first.snapshot == second.snapshot
        assert "engine.delivery.brownouts_observed" not in {
            key.split("{", 1)[0] for key in first.snapshot
        }
