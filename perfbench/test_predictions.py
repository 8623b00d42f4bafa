"""The benchmark's own predictions, checked on small traced runs.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_predictions.py``.
Each workload runs once at a small scale (in-process, traced); the
per-layer metrics must show the layers the benchmark says are idle as
exactly idle, and tracing must not change the simulated outcome.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from layers import layer_metrics  # noqa: E402
from run import measure, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALES = {"fleet_poll": 0.02, "fleet_push": 0.01, "chaos_outage": 0.05}
WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def runs():
    """workload -> (plain record, traced record, per-layer metrics)."""
    results = {}
    for name, scale in SCALES.items():
        plain = measure(name, 3, WORKERS, "plain", scale)
        traced = measure(name, 3, WORKERS, "traced", scale)
        metrics = layer_metrics(
            traced["before"], traced["after"],
            traced["setup_spans"], traced["run_spans"],
            traced["run_s"], plain["host_run_s"],
            {"engine": 0.0, "services": 0.0},
        )
        results[name] = (plain, traced, metrics)
    return results


def test_every_workload_is_measured():
    assert set(SCALES) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_outcome_checks_pass_and_tracing_is_transparent(runs, name):
    plain, traced, metrics = runs[name]
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["outcome"]["digest"] == traced["outcome"]["digest"]
    assert set(metrics) == set(metric_units("per_layer"))


def test_obs_idle_on_fleet_poll(runs):
    assert runs["fleet_poll"][2]["obs.observations"] == 0
    assert runs["fleet_push"][2]["obs.observations"] > 0
    assert runs["chaos_outage"][2]["obs.observations"] > 0


def test_push_drains_only_on_fleet_push(runs):
    assert runs["fleet_poll"][2]["push.drains"] == 0
    assert runs["chaos_outage"][2]["push.drains"] == 0
    assert runs["fleet_push"][2]["push.drains"] > 0


def test_epoch_counts(runs):
    assert runs["fleet_poll"][2]["parallel.epochs"] == 1
    assert runs["chaos_outage"][2]["parallel.epochs"] > 1000
    assert runs["fleet_push"][2]["parallel.epochs"] == 0


@pytest.mark.parametrize("name", ["fleet_poll", "fleet_push"])
def test_replay_and_resilience_idle_on_fleets(runs, name):
    metrics = runs[name][2]
    for key in (
        "replay.requests",
        "resilience.retries",
        "resilience.breaker_transitions",
        "resilience.dead_letters",
        "faults.activations",
    ):
        assert metrics[key] == 0, key


def test_chaos_exercises_the_fault_path(runs):
    metrics = runs["chaos_outage"][2]
    assert metrics["faults.activations"] == 1
    assert metrics["resilience.retries"] > 0
    assert metrics["resilience.breaker_transitions"] > 0


def test_speed_probe_scales_each_stretch_by_the_probes_around_it():
    from hostspeed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    # Probes at t=1 and t=3 taking twice the reference time (a host twice
    # as slow as the reference) and one at t=5 at reference speed.
    d = REFERENCE_S
    probe.samples = [(1.0, 2 * d), (3.0, 2 * d), (5.0, d)]
    assert probe.seconds(0.0, 5.0, corrected=False) == pytest.approx(5.0 - 4 * d)
    # Stretches [0,1) and [1+2d,3) scale by 1/2; [3+2d,5) by the median of
    # (2d, d) = 1.5d.
    expected = 1.0 / 2 + (2.0 - 2 * d) / 2 + (2.0 - 2 * d) / 1.5
    assert probe.seconds(0.0, 5.0) == pytest.approx(expected)
    assert probe.seconds(0.5, 1.0) == pytest.approx(0.25)
