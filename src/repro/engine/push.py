"""Push-first delivery: partner services notify the engine directly.

§6 ("Performance Improvements") frames the trade: polling dominates
time-to-action (T2A quartiles 58/84/122 s), but *"if all trigger
services perform push, the incurred instantaneous workload may be too
high"*.  This module builds the full-push half of that comparison as a
first-class delivery mode:

* **Opt-in contract.**  A :class:`~repro.services.partner.PartnerService`
  constructed with ``push=True`` declares the capability; the contract
  is *negotiated at publication*: an engine whose
  :attr:`~repro.engine.config.EngineConfig.push_policy` is set accepts
  it (``ServiceRegistration.push``), and the service then POSTs event
  payloads to ``/ifttt/v1/webhooks/push`` instead of mere realtime
  hints.  This generalizes the Alexa-style allowlist: hints name
  identities and still cost a fetch poll; pushes carry the wire events
  inline, so delivery skips the poll round-trip entirely.
* **Ingestion batching.**  Notifications land in a per-service pending
  queue and are drained by a coalescing simulator event: the first
  arrival arms one drain ``batch_window`` seconds out, later arrivals
  join it, and each drain processes up to ``max_batch`` entries —
  turning the §6 "instantaneous fleet-wide spike" into bounded batches.
* **Watermarked backpressure.**  The pending backlog degrades the
  service down a three-rung ladder — **push → hint → poll**: below
  ``low_watermark`` payloads are ingested directly; between the
  watermarks new arrivals drop their payload and become hint-style fast
  polls; at ``high_watermark`` they are shed outright and the identity
  waits for its polling cadence.  Recovery is hysteretic: a service
  re-earns the push rung only once its backlog drains below
  ``low_watermark``.
* **Uniform health tracking.**  Push slots in *behind* the existing
  resilience stack: an open breaker parks notifications in the same
  per-service suppression dict realtime hints use (counted by
  ``realtime_hints_suppressed``/``_resumed``) and resumes them as fast
  polls on close; when a :class:`~repro.engine.delivery.DeliveryController`
  is active, degraded-to-hint fast polls pass through its watermark
  admission, so the PR 6 degradation ladder and ``overload`` shedding
  apply to push traffic unchanged.

Safety net & restoration
------------------------

Applets on a push-contract service still poll — at
``safety_net_interval`` (a slow background sweep that catches anything
a lost notification missed; the trigger buffer is a non-consuming ring
and the engine dedupes by ``meta.id``, so double delivery is
structurally impossible).  :class:`PushDeliveryPolicy` draws that
constant with **no RNG consumption**; on the ``poll`` rung it delegates
to the wrapped base policy verbatim, so a degraded-push service's
interval distribution is *exactly* the base polling distribution —
the push analogue of PR 6's restoration proof, pinned by
``tests/test_push_equivalence.py``.

Deterministic tie-break (continuous-time tie hazard)
----------------------------------------------------

Push drains are ordinary simulator events, so simultaneous push
deliveries and poll wakes at the same timestamp are ordered by the
kernel's ``(time, priority, seq)`` total order
(:class:`repro.simcore.event.Event`): whichever was *scheduled* first
fires first, and the monotone ``seq`` makes replays byte-identical.
This closes the tie hazard noted in PR 5's scheduler fine print for the
push path; ``tests/test_push_mode.py`` replays a crafted same-timestamp
schedule twice and compares snapshots bytewise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

from repro.engine.poller import PollingPolicy
from repro.obs.metrics import COUNT_BUCKETS
from repro.simcore.rng import Rng

#: The three delivery modes the testbeds and CLI compare
#: (``repro chaos --delivery {poll,hint,push}``).
DELIVERY_MODES = ("poll", "hint", "push")

#: Backpressure rungs, best to worst.  A service's rung decides how an
#: arriving notification is treated *and* how its applets' poll
#: intervals are drawn (see :class:`PushDeliveryPolicy`).
RUNG_PUSH = 0
RUNG_HINT = 1
RUNG_POLL = 2
PUSH_RUNG_NAMES = ("push", "hint", "poll")


@dataclass(frozen=True)
class PushPolicy:
    """Tunables for push-first delivery (engine-side ingestion).

    Attributes
    ----------
    batch_window:
        Coalescing window in seconds: the first notification after an
        idle period arms one drain event this far out; arrivals inside
        the window join the same drain.
    max_batch:
        Entries processed per drain (the paper's ``k`` batching knob
        again — same default as the poll ``limit``).  A backlog larger
        than this re-arms the drain immediately after.
    low_watermark, high_watermark:
        Per-service pending-backlog thresholds for the push→hint→poll
        degradation ladder.  Below ``low`` payloads are ingested; in
        ``[low, high)`` new arrivals degrade to hint-style fast polls;
        at ``high`` they are shed to the polling cadence.  Recovery to
        the push rung requires the backlog to drain below ``low``.
    safety_net_interval:
        Poll interval for applets whose service holds the push rung —
        a slow background sweep, not a delivery path.  Drawn with no
        RNG consumption so push mode stays byte-deterministic.
    """

    batch_window: float = 0.05
    max_batch: int = 50
    low_watermark: int = 64
    high_watermark: int = 256
    safety_net_interval: float = 600.0

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.low_watermark < 1:
            raise ValueError(
                f"low_watermark must be >= 1, got {self.low_watermark}"
            )
        if self.high_watermark <= self.low_watermark:
            raise ValueError(
                "high_watermark must exceed low_watermark, got "
                f"{self.high_watermark} <= {self.low_watermark}"
            )
        if self.safety_net_interval <= 0:
            raise ValueError(
                f"safety_net_interval must be positive, got {self.safety_net_interval}"
            )


class PushServiceState:
    """Per-(service, engine) push ingestion state.

    Shared by every :class:`PushDeliveryPolicy` wrapping an applet whose
    trigger lives on the service — one service's backlog degrades every
    applet aimed at it, mirroring ``ServiceHealth``.
    """

    __slots__ = (
        "slug",
        "pending",
        "rung",
        "drain_armed",
        "notifications",
        "events_ingested",
        "degraded_to_hint",
        "shed_to_poll",
        "drains",
        "parked",
    )

    def __init__(self, slug: str) -> None:
        self.slug = slug
        #: FIFO of ``(identity, wire_event_or_None)`` — ``None`` payload
        #: marks a hint-degraded entry that drains as a fast poll.
        self.pending: Deque[Tuple[str, Optional[Dict[str, Any]]]] = deque()
        self.rung = RUNG_PUSH
        self.drain_armed = False
        self.notifications = 0
        self.events_ingested = 0
        self.degraded_to_hint = 0
        self.shed_to_poll = 0
        self.drains = 0
        self.parked = 0


class PushDeliveryPolicy(PollingPolicy):
    """Safety-net polling for applets on a push-contract service.

    Wraps any :class:`~repro.engine.poller.PollingPolicy` (including an
    :class:`~repro.engine.delivery.AdaptiveDeliveryPolicy`) around the
    *shared* :class:`PushServiceState`:

    * push/hint rung → the constant ``safety_net_interval``, with **no
      RNG draw** (pushes deliver the events; polling is a slow sweep);
    * poll rung (backlog at ``high_watermark``, hysteretic) → the base
      policy's draw **verbatim**, so full fallback restores the exact
      base interval distribution — the restoration proof mirror.
    """

    def __init__(
        self, base: PollingPolicy, state: PushServiceState, policy: PushPolicy
    ) -> None:
        self.base = base
        self.state = state
        self.policy = policy

    def next_interval(self, rng: Rng) -> float:
        if self.state.rung == RUNG_POLL:
            return self.base.next_interval(rng)
        return self.policy.safety_net_interval

    def observe_events(self, count: int) -> None:
        self.base.observe_events(count)

    def clone(self) -> "PushDeliveryPolicy":
        # Fresh base clone per applet; the push state stays shared —
        # it belongs to the (service, engine) pair, not the applet.
        return PushDeliveryPolicy(self.base.clone(), self.state, self.policy)

    def __repr__(self) -> str:
        return (
            f"<PushDeliveryPolicy rung={PUSH_RUNG_NAMES[self.state.rung]} "
            f"base={self.base!r}>"
        )


class PushController:
    """Engine-side push ingestion: batching, backpressure, parking.

    Built by :class:`~repro.engine.engine.IftttEngine` when
    :attr:`~repro.engine.config.EngineConfig.push_policy` is set; owns
    the ``POST /ifttt/v1/webhooks/push`` endpoint's semantics.
    """

    def __init__(self, engine, policy: PushPolicy) -> None:
        self.engine = engine
        self.policy = policy
        self._states: Dict[str, PushServiceState] = {}
        self.notifications_received = 0
        self.events_ingested = 0
        self.batches_drained = 0
        self.degraded_to_hint = 0
        self.shed_to_poll = 0
        self.notifications_parked = 0

    # -- state ------------------------------------------------------------------

    def state_for(self, service_slug: str) -> PushServiceState:
        """The (lazily created) ingestion state for one service."""
        state = self._states.get(service_slug)
        if state is None:
            state = self._states[service_slug] = PushServiceState(service_slug)
            # Live from birth, like the breaker-state gauge: a contract
            # service that never degrades still reports the push rung.
            engine = self.engine
            if engine.metrics is not None:
                engine.metrics.gauge(
                    f"{engine._ns}.push.rung", service=service_slug
                ).set(RUNG_PUSH)
        return state

    def wrap(self, base: PollingPolicy, service_slug: str) -> PushDeliveryPolicy:
        """Wrap an applet's policy in safety-net polling for ``service_slug``."""
        return PushDeliveryPolicy(base, self.state_for(service_slug), self.policy)

    def rungs(self) -> Dict[str, int]:
        """Current backpressure rung per contract service (0/1/2 =
        push/hint/poll) — the values behind the ``{ns}.push.rung`` gauge."""
        return {slug: s.rung for slug, s in sorted(self._states.items())}

    # -- ingestion --------------------------------------------------------------

    def ingest(self, service_slug: str, request) -> Dict[str, Any]:
        """Handle one push notification (the webhook handler body)."""
        from repro.engine.resilience import BreakerState

        engine = self.engine
        state = self.state_for(service_slug)
        self.notifications_received += 1
        state.notifications += 1
        entries = (request.body or {}).get("data", [])
        if engine.metrics is not None:
            engine.metrics.counter(
                f"{engine._ns}.push.notifications", service=service_slug
            ).inc()
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                engine._ns,
                "engine_push_notification",
                service=service_slug,
                identities=len(entries),
            )
        breaker = engine._breakers.get(service_slug)
        if breaker is not None and breaker.state is BreakerState.OPEN:
            # Same fallback as realtime hints: ingesting payloads for a
            # service whose breaker is open would dispatch actions that
            # are guaranteed to be shed, so park the identities on the
            # shared suppression dict instead (payloads dropped — the
            # buffer is a non-consuming ring, so the resume fast polls
            # re-fetch them).  Runs on whichever engine *received* the
            # push: the home shard when one exists, or (round_robin)
            # whichever shard the contract last pointed at.
            self.notifications_parked += 1
            state.parked += 1
            engine.realtime_hints_suppressed += 1
            parked = engine._suppressed_hints.setdefault(service_slug, {})
            for entry in entries:
                parked[entry.get("trigger_identity")] = None
            if engine.metrics is not None:
                engine.metrics.counter(
                    f"{engine._ns}.realtime_hints_suppressed",
                    service=service_slug,
                ).inc()
            if engine.trace is not None:
                engine.trace.record(
                    engine.now,
                    engine._ns,
                    "engine_push_parked",
                    service=service_slug,
                    identities=len(entries),
                )
            return {"status": "received"}
        for entry in entries:
            identity = entry.get("trigger_identity")
            # The wire carries newest-first (poll-response shape);
            # enqueue in chronological order.
            for wire in reversed(entry.get("events", [])):
                self._admit(state, identity, wire)
        self._arm_drain(state)
        return {"status": "received"}

    def _admit(
        self, state: PushServiceState, identity: str, wire: Dict[str, Any]
    ) -> None:
        """Enqueue one pushed event, walking the backpressure ladder."""
        self._refresh_rung(state)
        rung = state.rung
        if rung == RUNG_POLL:
            # Shed: the identity waits for its polling cadence (which
            # the poll rung has already restored to the base policy).
            state.shed_to_poll += 1
            self.shed_to_poll += 1
            if self.engine.metrics is not None:
                self.engine.metrics.counter(
                    f"{self.engine._ns}.push.shed_to_poll", service=state.slug
                ).inc()
            return
        if rung == RUNG_HINT:
            # Degrade: keep the identity, drop the payload — the drain
            # turns it into a hint-style fast poll.
            state.degraded_to_hint += 1
            self.degraded_to_hint += 1
            if self.engine.metrics is not None:
                self.engine.metrics.counter(
                    f"{self.engine._ns}.push.degraded_to_hint",
                    service=state.slug,
                ).inc()
            state.pending.append((identity, None))
            return
        state.pending.append((identity, wire))

    def _refresh_rung(self, state: PushServiceState) -> None:
        """Recompute the ladder rung from the backlog (with hysteresis)."""
        backlog = len(state.pending)
        if backlog >= self.policy.high_watermark:
            rung = RUNG_POLL
        elif backlog < self.policy.low_watermark:
            rung = RUNG_PUSH
        else:
            # Between the watermarks: degrade at least to hint, but a
            # service already shed to poll stays there until the backlog
            # drains below low — no flapping at the high watermark.
            rung = RUNG_POLL if state.rung == RUNG_POLL else RUNG_HINT
        if rung == state.rung:
            return
        engine = self.engine
        old, state.rung = state.rung, rung
        if engine.metrics is not None:
            engine.metrics.gauge(
                f"{engine._ns}.push.rung", service=state.slug
            ).set(rung)
            engine.metrics.counter(
                f"{engine._ns}.push.rung_transitions",
                service=state.slug,
                from_rung=PUSH_RUNG_NAMES[old],
                to_rung=PUSH_RUNG_NAMES[rung],
            ).inc()
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                engine._ns,
                "engine_push_rung_transition",
                service=state.slug,
                from_rung=PUSH_RUNG_NAMES[old],
                to_rung=PUSH_RUNG_NAMES[rung],
                backlog=len(state.pending),
            )

    # -- the coalescing drain ---------------------------------------------------

    def _arm_drain(self, state: PushServiceState) -> None:
        """Arm one drain event ``batch_window`` out (idempotent while armed).

        The drain is a plain simulator event, so a drain coinciding with
        a poll wake is ordered by the kernel's ``(time, priority, seq)``
        tie-break — the documented deterministic ordering for
        simultaneous push deliveries and poll wakes.
        """
        if state.drain_armed or not state.pending:
            return
        state.drain_armed = True
        self.engine.sim.schedule(
            self.policy.batch_window,
            self._drain,
            state,
            label=f"push-drain:{state.slug}",
        )

    def _drain(self, state: PushServiceState) -> None:
        """Process up to ``max_batch`` pending entries; re-arm if backlogged."""
        state.drain_armed = False
        engine = self.engine
        batch = 0
        ingested = 0
        while state.pending and batch < self.policy.max_batch:
            identity, wire = state.pending.popleft()
            batch += 1
            if wire is None:
                self._fast_poll(state, identity)
            else:
                ingested += self._deliver(state, identity, wire)
        state.drains += 1
        self.batches_drained += 1
        state.events_ingested += ingested
        self.events_ingested += ingested
        metrics = engine.metrics
        if metrics is not None:
            metrics.histogram(
                f"{engine._ns}.push.batch_size",
                bounds=COUNT_BUCKETS,
                service=state.slug,
            ).observe(batch)
            if ingested:
                metrics.counter(
                    f"{engine._ns}.push.events_ingested", service=state.slug
                ).inc(ingested)
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                engine._ns,
                "engine_push_drain",
                service=state.slug,
                entries=batch,
                ingested=ingested,
                backlog=len(state.pending),
            )
        self._refresh_rung(state)
        if state.pending:
            self._arm_drain(state)

    def _fast_poll(self, state: PushServiceState, identity: str) -> None:
        """Drain one hint-degraded entry as a fast poll.

        When a :class:`~repro.engine.delivery.DeliveryController` is
        active the fast poll passes through its watermark admission —
        exactly the treatment an honoured realtime hint gets — so the
        PR 6 degradation ladder and shedding apply to push traffic too.
        """
        from repro.engine.delivery import HINT_DEFER, HINT_SHED

        engine = self.engine
        delivery = engine.delivery
        if delivery is None:
            engine._fast_poll_identity(identity)
            return
        verdict = delivery.admit_hint(state.slug)
        if verdict == HINT_SHED:
            return
        delay = delivery.policy.hint_defer_delay if verdict == HINT_DEFER else 0.0
        engine._fast_poll_identity(identity, delay)

    def _deliver(
        self, state: PushServiceState, identity: str, wire: Dict[str, Any]
    ) -> int:
        """Run one pushed event through dedupe → queries/filter → actions.

        Exactly the poll-response processing path minus the poll: the
        event enters ``seen_ids`` (so the safety-net poll won't re-fire
        it) and flows through ``_process_event`` into the ordinary
        action dispatch, retry, and conservation accounting.
        """
        engine = self.engine
        event_id = wire["meta"]["id"]
        delivered = 0
        start = engine._applet_id_start
        for applet_id in engine._by_identity.get(identity, ()):
            slot = applet_id - start
            applet = engine._slot_applets[slot]
            if applet is None or not applet.enabled:
                continue
            if event_id in engine._seen_ids.get(slot, ()):
                continue
            engine._remember_event(slot, event_id)
            engine._policies[slot].observe_events(1)
            engine._process_event(applet, wire)
            delivered += 1
        if delivered:
            metrics = engine.metrics
            if metrics is not None:
                if metrics is not engine._m_registry:
                    engine._hot_metrics(metrics)
                engine._m_events_observed.inc(delivered)
        return delivered

    # -- reporting --------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot merged into ``IftttEngine.stats()``."""
        return {
            "push_notifications_received": self.notifications_received,
            "push_events_ingested": self.events_ingested,
            "push_batches_drained": self.batches_drained,
            "push_degraded_to_hint": self.degraded_to_hint,
            "push_shed_to_poll": self.shed_to_poll,
            "push_notifications_parked": self.notifications_parked,
        }
