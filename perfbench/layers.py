"""Layer attribution for the traced benchmark run.

:class:`SpanTracer` wraps each layer's entry points (the table
:data:`ENTRY_POINTS`) from outside the program: every call becomes a span
on a thread-local stack, and a layer's *self time* is its spans' duration
minus the part covered by child spans.  Spans are timed with the calling
thread's CPU clock, so time a stepping worker spends waiting for the
interpreter lock or an epoch barrier is nobody's self time.
:func:`layer_metrics` combines the spans with each layer's public
counters into the ``per_layer`` metrics named in ``BENCHMARK.json``.

Each layer metric, and the end-to-end metric it should move on which
workload (a later performance change cites these names):

==========================  =====================================  ===========================================
layer (module)              metrics                                should move
==========================  =====================================  ===========================================
simcore (Simulator)         simcore.events, .events_per_request,   requests_per_s on fleet_poll
                            .self_s
simcore.parallel            parallel.epochs, .mailbox_msgs,        requests_per_s on chaos_outage (barriers)
(ShardedSimulator)          .barrier_s, .overlap                   and fleet_poll (overlap)
net (Network,               net.messages, .cross_shard_msgs,       requests_per_s on all three, most on
CrossShardRouter, HttpNode) .refused, .self_s                      fleet_poll
services (PartnerService,   services.requests,                     requests_per_s and peak_rss_mb on
TriggerBuffer)              .nonempty_poll_share, .self_s,         fleet_poll
                            .bytes_per_applet
engine (IftttEngine)        engine.polls, .actions_dispatched,     setup_s and peak_rss_mb on fleet_poll;
                            .self_s, .install_s, .bytes_per_applet requests_per_s on fleet_push
engine.scheduler            scheduler.wakes, .polls_per_wake,      requests_per_s on fleet_poll
(HeapPollScheduler)         .stale_share, .self_s
engine.push                 push.drains, .events_per_drain,        requests_per_s and t2a_p99_s on fleet_push
(PushController)            .self_s
engine.delivery / .replay   delivery.stretches, .self_s,           requests_per_s and failed_share on
/ .resilience               replay.requests, .self_s,              chaos_outage
                            resilience.retries,
                            .breaker_transitions, .dead_letters
faults (FaultInjector)      faults.activations                     failed_share on chaos_outage
obs (MetricsRegistry,       obs.observations, .self_s,             requests_per_s on fleet_push and
Histogram, P² sketches)     .snapshot_s                            chaos_outage; 0 on fleet_poll
the traced run itself       trace.overhead                         none
==========================  =====================================  ===========================================

Predicted zeros (checked by ``perfbench/test_predictions.py``):
``obs.observations`` is 0 on fleet_poll, ``push.drains`` is 0 outside
fleet_push, ``parallel.epochs`` is 1 on fleet_poll and above 1000 on
chaos_outage, and the replay and resilience counters are 0 on both
fleets.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class, methods): the calls into each layer that open a
#: span.  Callbacks the kernel fires without passing through one of these
#: (lambdas, world-level closures) stay in the enclosing span.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("simcore", "repro.simcore.simulator", "Simulator",
     ("run_until", "schedule_at")),
    ("parallel", "repro.simcore.parallel", "ShardedSimulator",
     ("run_until", "_drain_mailboxes", "_step_epoch")),
    ("net", "repro.net.network", "Network", ("transmit", "_ingress", "_deliver")),
    ("net", "repro.net.network", "CrossShardRouter", ("transmit",)),
    ("net", "repro.net.http", "HttpNode",
     ("request", "on_message", "_on_timeout", "_deliver_refusal")),
    ("services", "repro.services.partner", "PartnerService",
     ("ingest_event", "_handle_trigger_poll", "_handle_action",
      "_handle_batch_action", "_handle_query")),
    ("services", "repro.services.buffer", "TriggerBuffer", ("append", "fetch")),
    ("engine", "repro.engine.engine", "IftttEngine",
     ("install_applet", "_poll", "_on_poll_response", "_process_event",
      "_dispatch_action", "_send_action", "_on_action_result",
      "_handle_realtime_hint", "_handle_push_notification")),
    ("scheduler", "repro.engine.scheduler", "HeapPollScheduler",
     ("schedule", "cancel", "_fire")),
    ("push", "repro.engine.push", "PushController", ("ingest", "_drain")),
    ("delivery", "repro.engine.delivery", "DeliveryController",
     ("note_result", "admit_hint", "admit_retry", "stretch_retry_delay",
      "refresh_level", "on_breaker_transition", "replay_headroom")),
    ("delivery", "repro.engine.delivery", "AdaptiveDeliveryPolicy",
     ("next_interval",)),
    ("replay", "repro.engine.replay", "ReplayController",
     ("on_service_healed", "_drain", "_on_batch_result", "_on_single_result")),
    ("resilience", "repro.engine.resilience", "CircuitBreaker",
     ("allow", "record_success", "record_failure")),
    ("resilience", "repro.engine.engine", "IftttEngine",
     ("_note_action_failure", "_retry_action", "_dead_letter",
      "_on_breaker_transition")),
    ("faults", "repro.faults.injector", "FaultInjector", ("_activate", "_deactivate")),
    ("obs", "repro.obs.metrics", "MetricsRegistry",
     ("counter", "gauge", "histogram", "snapshot")),
    ("obs", "repro.obs.metrics", "Counter", ("inc",)),
    ("obs", "repro.obs.metrics", "Gauge", ("set", "add")),
    ("obs", "repro.obs.metrics", "Histogram", ("observe",)),
)


def _covered(steps: List[Tuple[float, float, float]]) -> float:
    """Length of the union of the ``(start, end, _)`` intervals in ``steps``."""
    covered, reach = 0.0, float("-inf")
    for start, end, _ in sorted(steps):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class _ThreadSpans:
    """One thread's span stack and running totals (touched by that thread only)."""

    __slots__ = ("stack", "self_s", "incl_s", "calls", "nonempty_polls")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.nonempty_polls = 0


class SpanTracer:
    """Patches :data:`ENTRY_POINTS` with span-recording wrappers.

    Use as a context manager; the original methods are restored on exit.
    Entry points the program no longer has are skipped and listed in
    :attr:`missing`, so a refactor degrades the attribution visibly
    instead of breaking the run.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._patched: List[Tuple[type, str, Any]] = []
        self.missing: List[str] = []
        # Epoch bookkeeping, written only by the thread driving the stepper
        # (per-shard step times arrive through list.append, which is atomic).
        self._epoch_steps: Optional[List[Tuple[float, float]]] = None
        self.epoch_wall_s = 0.0
        self.epoch_shard_cpu_s = 0.0
        self.epoch_wait_s = 0.0

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        for layer, module_name, class_name, methods in ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            for method in methods:
                original = owner.__dict__.get(method) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{class_name}.{method}")
                    continue
                fn = original
                if (class_name, method) == ("Simulator", "run_until"):
                    fn = self._shard_step_timer(fn)
                elif (class_name, method) == ("ShardedSimulator", "_step_epoch"):
                    fn = self._epoch_timer(fn)
                elif (class_name, method) == ("PartnerService", "_handle_trigger_poll"):
                    fn = self._poll_result_counter(fn)
                setattr(owner, method, self._span(layer, f"{class_name}.{method}", fn))
                self._patched.append((owner, method, original))
        if self.missing:
            print(f"perfbench: unwrapped entry points: {self.missing}", file=sys.stderr)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            self._threads.append(spans)
        return spans

    def _span(self, layer: str, qualname: str, fn: Callable) -> Callable:
        clock = time.thread_time
        tracer = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            spans = tracer._spans()
            stack = spans.stack
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                spans.self_s[layer] = spans.self_s.get(layer, 0.0) + duration - frame[1]
                spans.incl_s[qualname] = spans.incl_s.get(qualname, 0.0) + duration
                spans.calls[qualname] = spans.calls.get(qualname, 0) + 1
                if stack:
                    stack[-1][1] += duration

        return span

    def _shard_step_timer(self, fn: Callable) -> Callable:
        """Record (start, end, cpu) of each shard's step inside an epoch."""
        tracer = self

        @functools.wraps(fn)
        def run_until(*args: Any, **kwargs: Any) -> Any:
            steps = tracer._epoch_steps
            if steps is None:
                return fn(*args, **kwargs)
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                steps.append((start, time.perf_counter(), time.thread_time() - cpu))

        return run_until

    def _epoch_timer(self, fn: Callable) -> Callable:
        """Epoch wall time, the shards' summed CPU, and the barrier wait.

        The wait is the part of the epoch during which no shard was
        stepping: whether the shards step in worker threads or one after
        another in the calling thread.
        """
        tracer = self

        @functools.wraps(fn)
        def step_epoch(*args: Any, **kwargs: Any) -> Any:
            steps: List[Tuple[float, float, float]] = []
            tracer._epoch_steps = steps
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - started
                tracer._epoch_steps = None
                tracer.epoch_wall_s += wall
                tracer.epoch_shard_cpu_s += sum(cpu for _, _, cpu in steps)
                tracer.epoch_wait_s += wall - _covered(steps)

        return step_epoch

    def _poll_result_counter(self, fn: Callable) -> Callable:
        """Count poll responses that carry at least one event."""
        tracer = self

        @functools.wraps(fn)
        def handle_poll(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if isinstance(result, dict) and result.get("data"):
                tracer._spans().nonempty_polls += 1
            return result

        return handle_poll

    # -- readout --------------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. set-up spans)."""
        for spans in self._threads:
            spans.self_s.clear()
            spans.incl_s.clear()
            spans.calls.clear()
            spans.nonempty_polls = 0
        self.epoch_wall_s = self.epoch_shard_cpu_s = self.epoch_wait_s = 0.0

    def totals(self) -> Dict[str, Any]:
        """Span totals summed over every thread that recorded one."""
        self_s: Dict[str, float] = {}
        incl_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for spans in self._threads:
            for key, value in spans.self_s.items():
                self_s[key] = self_s.get(key, 0.0) + value
            for key, value in spans.incl_s.items():
                incl_s[key] = incl_s.get(key, 0.0) + value
            for key, value in spans.calls.items():
                calls[key] = calls.get(key, 0) + value
        return {
            "self_s": self_s,
            "incl_s": incl_s,
            "calls": calls,
            "nonempty_polls": sum(spans.nonempty_polls for spans in self._threads),
            "epoch_wall_s": self.epoch_wall_s,
            "epoch_shard_cpu_s": self.epoch_shard_cpu_s,
            "epoch_wait_s": self.epoch_wait_s,
        }


# -- public counters ------------------------------------------------------------


def read_counters(workload) -> Dict[str, float]:
    """Cumulative layer counters from each layer's public API."""
    stats = workload.engine_totals()
    schedulers = [engine.poll_dispatch_stats() for engine in workload.engines]
    nodes = [node for network in workload.networks for node in network.nodes]
    stepper = workload.stepper
    return {
        "sim_events": sum(sim.fired_count for sim in workload.sims),
        "requests": workload.requests(),
        "epochs": stepper.epochs if stepper is not None else 0,
        "mailbox_msgs": stepper.mailbox_messages if stepper is not None else 0,
        "net_messages": sum(
            network.messages_delivered + network.messages_dropped
            for network in workload.networks
        ),
        "cross_shard_msgs": (
            workload.router.messages_routed if workload.router is not None else 0
        ),
        "refused": sum(getattr(node, "connection_refused", 0) for node in nodes),
        "service_requests": sum(service.requests_served for service in workload.services),
        "polls": stats["polls_sent"],
        "actions_dispatched": stats["actions_dispatched"],
        "wakes": sum(s.get("wakes", 0) for s in schedulers),
        "batched_polls": sum(s.get("batched_polls", 0) for s in schedulers),
        "stale_entries": sum(s.get("stale_entries", 0) for s in schedulers),
        "heap_entries": sum(s.get("heap_entries", 0) for s in schedulers),
        "push_drains": stats["push_batches_drained"],
        "push_events": stats["push_events_ingested"],
        "stretches": stats["delivery_intervals_stretched"],
        "replay_requests": stats["replay_requests_sent"],
        "retries": stats["poll_retries"] + stats["action_retries"],
        "fault_activations": sum(i.activations for i in workload.injectors),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    before: Dict[str, float],
    after: Dict[str, float],
    setup_spans: Dict[str, Any],
    run_spans: Dict[str, Any],
    traced_run_s: float,
    untraced_run_s: float,
    memory: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric for one traced run.

    ``before``/``after`` are :func:`read_counters` around the timed run;
    ``setup_spans``/``run_spans`` are :meth:`SpanTracer.totals` of the two
    phases (the run phase includes reading the outcome, so the final
    snapshot is timed); ``memory`` comes from :func:`bytes_per_applet`.
    """
    delta = {key: after[key] - before[key] for key in after}
    self_s = run_spans["self_s"]
    incl_s = run_spans["incl_s"]
    calls = run_spans["calls"]
    poll_handlers = calls.get("PartnerService._handle_trigger_poll", 0)
    return {
        "simcore.events": delta["sim_events"],
        "simcore.events_per_request": _ratio(delta["sim_events"], delta["requests"]),
        "simcore.self_s": self_s.get("simcore", 0.0),
        "parallel.epochs": delta["epochs"],
        "parallel.mailbox_msgs": delta["mailbox_msgs"],
        "parallel.barrier_s": (
            run_spans["epoch_wait_s"]
            + incl_s.get("ShardedSimulator._drain_mailboxes", 0.0)
        ),
        "parallel.overlap": _ratio(
            run_spans["epoch_shard_cpu_s"], run_spans["epoch_wall_s"]
        ),
        "net.messages": delta["net_messages"],
        "net.cross_shard_msgs": delta["cross_shard_msgs"],
        "net.refused": delta["refused"],
        "net.self_s": self_s.get("net", 0.0),
        "services.requests": delta["service_requests"],
        "services.nonempty_poll_share": _ratio(run_spans["nonempty_polls"], poll_handlers),
        "services.self_s": self_s.get("services", 0.0),
        "services.bytes_per_applet": memory["services"],
        "engine.polls": delta["polls"],
        "engine.actions_dispatched": delta["actions_dispatched"],
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.install_s": setup_spans["incl_s"].get("IftttEngine.install_applet", 0.0),
        "engine.bytes_per_applet": memory["engine"],
        "scheduler.wakes": delta["wakes"],
        "scheduler.polls_per_wake": _ratio(delta["batched_polls"], delta["wakes"]),
        "scheduler.stale_share": _ratio(after["stale_entries"], after["heap_entries"]),
        "scheduler.self_s": self_s.get("scheduler", 0.0),
        "push.drains": delta["push_drains"],
        "push.events_per_drain": _ratio(delta["push_events"], delta["push_drains"]),
        "push.self_s": self_s.get("push", 0.0),
        "delivery.stretches": delta["stretches"],
        "delivery.self_s": self_s.get("delivery", 0.0),
        "replay.requests": delta["replay_requests"],
        "replay.self_s": self_s.get("replay", 0.0),
        "resilience.retries": delta["retries"],
        "resilience.breaker_transitions": calls.get("IftttEngine._on_breaker_transition", 0),
        "resilience.dead_letters": calls.get("IftttEngine._dead_letter", 0),
        "faults.activations": delta["fault_activations"],
        "obs.observations": calls.get("Histogram.observe", 0),
        "obs.self_s": self_s.get("obs", 0.0),
        "obs.snapshot_s": incl_s.get("MetricsRegistry.snapshot", 0.0),
        "trace.overhead": _ratio(traced_run_s, untraced_run_s),
    }


# -- memory attribution ---------------------------------------------------------

#: Allocation-site groups: a traced block belongs to the first group whose
#: path fragment its innermost frame's file contains.
MEMORY_GROUPS = (("engine", "/repro/engine/"), ("services", "/repro/services/"))


def bytes_per_applet(snapshot: tracemalloc.Snapshot, n_applets: int) -> Dict[str, float]:
    """Live bytes per applet, grouped by the allocating module's layer."""
    grouped = {group: 0 for group, _ in MEMORY_GROUPS}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        for group, fragment in MEMORY_GROUPS:
            if fragment in filename:
                grouped[group] += stat.size
                break
    return {group: _ratio(size, n_applets) for group, size in grouped.items()}
