"""End-to-end checks of the metrics pipeline on a real testbed run.

One §4-style measurement run must light up the poll, RTT, action, and
simulator metrics — and the live instrumentation must agree with the
:func:`~repro.obs.bridge.bridge_trace` fold of the very same run's
trace, record for record.
"""

import pytest

from repro.obs import MetricsRegistry, bridge_trace, poll_latency_summary
from repro.testbed.controller import TestController
from repro.testbed.testbed import Testbed, TestbedConfig
from tests.helpers import build_engine_world, install_ping_applet


@pytest.fixture(scope="module")
def measured_testbed():
    """One A2 measurement run shared by every test in the module."""
    testbed = Testbed(TestbedConfig(seed=11)).build()
    controller = TestController(testbed)
    controller.install("A2")
    latencies = controller.measure_t2a("A2", runs=3, spacing=150.0)
    return testbed, latencies


class TestLiveMetrics:
    def test_run_produces_nonzero_poll_metrics(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.total("engine.polls_sent") > 0
        assert registry.get("engine.poll_rtt_seconds").count > 0
        assert registry.get("engine.poll_batch_new").count > 0

    def test_actions_and_t2a_light_up(self, measured_testbed):
        testbed, latencies = measured_testbed
        registry = testbed.metrics
        dispatched = registry.total("engine.actions_dispatched")
        assert dispatched >= len(latencies) > 0
        t2a = registry.get("engine.t2a_seconds", service="philips_hue")
        assert t2a is not None and t2a.count == dispatched
        # T2A through the engine's clock must bracket the controller's
        # device-observed latencies (engine sees a slice of the full path).
        assert 0 < t2a.min <= max(latencies)

    def test_network_and_http_layers_observe_traffic(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.total("net.messages_delivered") > 0
        assert registry.total("http.requests_issued") > 0
        delivery = registry.get("net.delivery_seconds")
        assert delivery is not None and delivery.count > 0

    def test_services_count_their_polls(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.total("service.polls_served") == registry.total(
            "engine.polls_sent"
        )
        assert registry.get("service.poll_batch_size", service="wemo").count > 0

    def test_simulator_reports_progress(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.value("sim.events_fired") > 0
        assert registry.value("sim.runs") > 0
        # The gauge is stamped at the end of the last run segment that
        # fired events, so it can trail sim.now by an idle tail.
        assert 0 < registry.value("sim.time_seconds") <= testbed.sim.now


class TestBridgeCrossCheck:
    def test_bridge_counters_match_live_and_trace(self, measured_testbed):
        testbed, _ = measured_testbed
        bridged = bridge_trace(testbed.trace)
        polls = len(testbed.trace.query(kind="engine_poll_sent"))
        assert polls > 0
        assert bridged.total("trace.records") == len(testbed.trace)
        assert (
            bridged.value("trace.records", kind="engine_poll_sent", source="engine")
            == polls
            == testbed.metrics.total("engine.polls_sent")
        )

    def test_bridge_rtts_equal_live_rtts(self, measured_testbed):
        # Both sides time the same send/response pairs off the same
        # simulated clock, so they must agree to the float bit.
        testbed, _ = measured_testbed
        bridged = bridge_trace(testbed.trace)
        for live_name, bridged_name in (
            ("engine.poll_rtt_seconds", "trace.poll_rtt_seconds"),
            ("engine.action_rtt_seconds", "trace.action_rtt_seconds"),
        ):
            live = testbed.metrics.get(live_name)
            folded = bridged.get(bridged_name)
            assert live.count == folded.count > 0
            assert live.total == pytest.approx(folded.total)

    def test_poll_latency_summary_landmarks(self, measured_testbed):
        testbed, _ = measured_testbed
        summary = poll_latency_summary(testbed.trace)
        assert summary["n"] > 0
        assert 0 < summary["p50"] <= summary["p95"] <= summary["p99"]


class TestDisabledMetrics:
    def test_testbed_runs_without_a_registry(self):
        testbed = Testbed(TestbedConfig(seed=11, metrics_enabled=False)).build()
        controller = TestController(testbed)
        controller.install("A2")
        testbed.run_for(600.0)
        assert testbed.metrics is None
        assert len(testbed.trace) > 0  # tracing is independent of metrics


class TestCachedHandles:
    """Per-message call sites cache their instruments per registry.

    Swapping the registry mid-run must rebind every cached handle (each
    window's samples land in its own registry), and a handle is only
    registered on first use — a node never gains instruments it does
    not update, which would change snapshots.
    """

    def test_registry_swap_rebinds_every_cached_handle(self):
        world = build_engine_world(with_trace=False)
        first, second = MetricsRegistry(), MetricsRegistry()
        world.net.metrics = first
        install_ping_applet(world.engine)
        world.sim.run_until(5.0)
        world.service.ingest_event("ping", {"n": 1})
        world.sim.run_until(30.0)  # polls at 0.5 s + 10 s k: none in flight
        world.net.metrics = second
        world.service.ingest_event("ping", {"n": 2})
        world.sim.run_until(60.0)
        engine_host = world.engine.address.host
        service_host = world.service.address.host
        for registry in (first, second):
            assert registry.total("engine.actions_dispatched") == 1
            assert registry.total("engine.actions_delivered") == 1
            assert registry.get("engine.t2a_seconds", service="svc").count == 1
            assert registry.get("engine.action_rtt_seconds").count == 1
            issued = registry.value("http.requests_issued", node=engine_host)
            assert issued == registry.total("engine.polls_sent") + 1
            assert registry.value("http.requests_served", node=service_host) == issued
            assert registry.value("http.responses", status_class="2xx") == issued
            assert registry.get("http.rtt_seconds", node=engine_host).count == issued
            assert registry.total("service.polls_served") == registry.total(
                "engine.polls_sent"
            )
            assert registry.get("http.requests_issued", node=service_host) is None
            assert registry.get("http.requests_served", node=engine_host) is None
