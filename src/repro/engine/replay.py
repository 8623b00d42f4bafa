"""Dead-letter replay with batched action dispatch.

The paper's §4/§6 analysis shows partner outages surfacing as silent
latency spikes and fleet load dominated by bursty *catch-up* traffic
after recovery.  PR 2 gave the engine a dead-letter sink so no action is
silently lost; this module closes the loop: when a service **heals**
(its circuit breaker closes, or an operator triggers replay explicitly),
its dead letters are drained back into
:class:`~repro.engine.resilience.PendingAction` commitments and
re-dispatched.

Replay generates exactly the same-service catch-up burst that **batched
action dispatch** is meant to flatten, so the two ship as a pair: the
controller coalesces up to
:attr:`~repro.engine.resilience.ReplayPolicy.batch_limit` (default 50,
the paper's polling ``limit`` k) same-service actions into one
:class:`~repro.services.partner.BatchActionRequest` against
``POST /ifttt/v1/actions/batch``; with
:attr:`~repro.engine.resilience.ReplayPolicy.batching` off, every action
travels alone — the baseline ``repro chaos --replay`` compares against.

Accounting extends the conservation invariant by one state::

    dispatched == delivered + in_retry + dead_lettered + in_replay

A drained letter moves ``dead_lettered -> in_replay``; a per-entry batch
success moves ``in_replay -> delivered``; a per-entry failure moves
``in_replay`` back through the ordinary retry pipeline
(``engine._note_action_failure``), ending in ``in_retry`` or a fresh
dead letter.  Nothing is ever in two states at once, so the sum is
conserved at every simulator step — per shard, and therefore fleet-wide
(see ``docs/SHARDING.md``).

Letters whose applet has been uninstalled are *not* replayed (delivering
for a removed applet is the exact bug
:meth:`~repro.engine.engine.IftttEngine.uninstall_applet` closes for the
retry queue); they stay sealed in the sink.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.engine.resilience import DeadLetter, PendingAction, ReplayPolicy
from repro.net.http import HttpResponse
from repro.obs.metrics import COUNT_BUCKETS
from repro.services.partner import ACTION_PATH, BATCH_ACTION_PATH, BatchActionRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import IftttEngine


class ReplayController:
    """Drains a healed service's dead letters back through delivery.

    One controller per engine (per *shard* in a fleet — replay is
    shard-local, like every other resilience mechanism).  The engine
    calls :meth:`on_service_healed` from its breaker-transition hook;
    operators call :meth:`replay_service` directly.
    """

    def __init__(self, engine: "IftttEngine", policy: ReplayPolicy) -> None:
        self.engine = engine
        self.policy = policy
        #: Totals, mirrored into ``{ns}.replay.*`` metrics.
        self.drains = 0
        self.dead_letters_replayed = 0
        self.requests_sent = 0
        self.actions_delivered = 0
        self.actions_failed = 0
        #: ``(delivered_at, record)`` per replayed delivery, in order —
        #: the chaos testbed reads this to measure the catch-up burst.
        self.deliveries: List[Tuple[float, PendingAction]] = []
        #: Burst envelope: first re-dispatch and last replayed delivery.
        self.first_dispatch_at: Optional[float] = None
        self.last_delivery_at: Optional[float] = None
        #: Services with a drain already scheduled (dedupes heal events).
        self._drain_scheduled: Dict[str, bool] = {}

    # -- triggers -------------------------------------------------------------

    def on_service_healed(self, service_slug: str) -> None:
        """Breaker-close hook: schedule a drain if the policy allows it."""
        if not self.policy.replay_on_heal:
            return
        self._schedule_drain(service_slug)

    def replay_service(self, service_slug: str) -> None:
        """Explicit trigger: drain one service's dead letters now."""
        self._drain(service_slug)

    def _schedule_drain(self, service_slug: str) -> None:
        if self._drain_scheduled.get(service_slug):
            return
        if not any(
            letter.service_slug == service_slug and self._replayable(letter)
            for letter in self.engine.dead_letters
        ):
            return
        self._drain_scheduled[service_slug] = True
        # Deferred by (at least) one zero-delay event so the drain never
        # runs re-entrantly inside the response callback that closed the
        # breaker.
        self.engine.sim.schedule(
            self.policy.drain_delay,
            self._scheduled_drain,
            service_slug,
            label=f"replay-drain:{service_slug}",
        )

    def _scheduled_drain(self, service_slug: str) -> None:
        self._drain_scheduled[service_slug] = False
        self._drain(service_slug)

    def _defer_drain(self, service_slug: str) -> None:
        """Retry a headroom-starved drain after the delivery backoff."""
        if self._drain_scheduled.get(service_slug):
            return
        self._drain_scheduled[service_slug] = True
        self.engine.sim.schedule(
            self.engine.delivery.policy.replay_drain_backoff,
            self._scheduled_drain,
            service_slug,
            label=f"replay-redrain:{service_slug}",
        )

    def _replayable(self, letter: DeadLetter) -> bool:
        """Replaying for an uninstalled applet would resurrect the
        removed-applet delivery bug; such letters stay sealed."""
        return self.engine.has_applet(letter.applet_id)

    # -- the drain ------------------------------------------------------------

    def _drain(self, service_slug: str) -> None:
        engine = self.engine
        drained: List[DeadLetter] = []
        kept: List[DeadLetter] = []
        # Delivery admission: a drain may only put as many records in
        # flight as the retry queue's high watermark leaves room for —
        # a catch-up burst respects the same ingestion bound ordinary
        # failures do.  Letters past the headroom stay sealed and a
        # re-drain is scheduled ``replay_drain_backoff`` out.
        headroom = (
            engine.delivery.replay_headroom(service_slug)
            if engine.delivery is not None
            else None
        )
        deferred = 0
        for letter in engine.dead_letters:
            if letter.service_slug == service_slug and self._replayable(letter):
                if headroom is not None and len(drained) >= headroom:
                    deferred += 1
                    kept.append(letter)
                else:
                    drained.append(letter)
            else:
                kept.append(letter)
        if deferred:
            engine.delivery.note_replay_drain_deferred(service_slug)
            self._defer_drain(service_slug)
        if not drained:
            return
        engine.dead_letters[:] = kept
        records = [letter.to_pending() for letter in drained]
        engine.actions_in_replay += len(records)
        if engine.delivery is not None:
            engine.delivery.note_replay_enqueued(service_slug, len(records))
        self.drains += 1
        self.dead_letters_replayed += len(records)
        ns = engine.metrics_namespace
        if engine.metrics is not None:
            engine.metrics.counter(f"{ns}.replay.drains", service=service_slug).inc()
            engine.metrics.counter(
                f"{ns}.replay.dead_letters_replayed", service=service_slug
            ).inc(len(records))
            engine.metrics.gauge(f"{ns}.replay.in_replay", service=service_slug).set(
                engine.actions_in_replay
            )
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                ns,
                "engine_replay_drain",
                service=service_slug,
                letters=len(records),
                batching=self.policy.batching,
            )
        if self.policy.batching:
            limit = self.policy.batch_limit
            for start in range(0, len(records), limit):
                self._send_batch(service_slug, records[start:start + limit])
        else:
            for record in records:
                self._send_single(record)

    # -- dispatch -------------------------------------------------------------

    def _mark_dispatch(self) -> None:
        self.requests_sent += 1
        if self.first_dispatch_at is None:
            self.first_dispatch_at = self.engine.now

    def _shed(self, records: List[PendingAction]) -> None:
        """Breaker re-opened under the drain: burn one attempt each and
        hand the records back to the ordinary failure pipeline."""
        engine = self.engine
        for record in records:
            record.attempts += 1
            engine.actions_in_replay -= 1
            if engine.delivery is not None:
                engine.delivery.note_replay_dequeued(record.service_slug)
            self.actions_failed += 1
            engine._note_action_failure(record)
        if engine.metrics is not None:
            engine.metrics.counter(
                f"{engine.metrics_namespace}.replay.actions_shed",
                service=records[0].service_slug,
            ).inc(len(records))

    def _send_batch(self, service_slug: str, records: List[PendingAction]) -> None:
        engine = self.engine
        breaker = engine.breaker_for(service_slug)
        if breaker is not None and not breaker.allow(engine.now):
            self._shed(records)
            return
        self._mark_dispatch()
        for record in records:
            record.attempts += 1
        registration = engine._services[service_slug]
        batch = BatchActionRequest(entries=tuple(
            {
                "action_slug": record.action_slug,
                "actionFields": record.fields,
                "user": record.user,
            }
            for record in records
        ))
        ns = engine.metrics_namespace
        if engine.metrics is not None:
            engine.metrics.counter(f"{ns}.replay.batches_sent", service=service_slug).inc()
            engine.metrics.histogram(
                f"{ns}.replay.batch_size", bounds=COUNT_BUCKETS, service=service_slug
            ).observe(len(records))
        engine.post(
            registration.address,
            BATCH_ACTION_PATH,
            body=batch.to_body(),
            headers=engine._auth_headers(registration, records[0].user),
            on_response=lambda response, recs=tuple(records): (
                self._on_batch_result(list(recs), response)
            ),
            timeout=engine.config.action_timeout,
        )

    def _send_single(self, record: PendingAction) -> None:
        engine = self.engine
        breaker = engine.breaker_for(record.service_slug)
        if breaker is not None and not breaker.allow(engine.now):
            self._shed([record])
            return
        self._mark_dispatch()
        record.attempts += 1
        registration = engine._services[record.service_slug]
        engine.post(
            registration.address,
            ACTION_PATH + record.action_slug,
            body={"actionFields": record.fields, "user": record.user},
            headers=engine._auth_headers(registration, record.user),
            on_response=lambda response, r=record: self._on_single_result(r, response),
            timeout=engine.config.action_timeout,
        )

    # -- results --------------------------------------------------------------

    def _on_batch_result(self, records: List[PendingAction], response: HttpResponse) -> None:
        engine = self.engine
        breaker = engine.breaker_for(records[0].service_slug)
        if not response.ok:
            if breaker is not None:
                breaker.record_failure(engine.now)
            for record in records:
                record.last_status = response.status
                self._refail(record)
            return
        if breaker is not None:
            breaker.record_success(engine.now)
        data = (response.body or {}).get("data", [])
        for index, record in enumerate(records):
            entry = data[index] if index < len(data) else {"status": 500}
            status = int(entry.get("status", 500))
            record.last_status = status
            if 200 <= status < 300:
                self._delivered(record)
            else:
                self._refail(record)

    def _on_single_result(self, record: PendingAction, response: HttpResponse) -> None:
        engine = self.engine
        breaker = engine.breaker_for(record.service_slug)
        record.last_status = response.status
        if response.ok:
            if breaker is not None:
                breaker.record_success(engine.now)
            self._delivered(record)
        else:
            if breaker is not None:
                breaker.record_failure(engine.now)
            self._refail(record)

    def _delivered(self, record: PendingAction) -> None:
        engine = self.engine
        engine.actions_in_replay -= 1
        if engine.delivery is not None:
            engine.delivery.note_replay_dequeued(record.service_slug)
        engine.actions_delivered += 1
        self.actions_delivered += 1
        self.last_delivery_at = engine.now
        self.deliveries.append((engine.now, record))
        ns = engine.metrics_namespace
        if engine.metrics is not None:
            engine.metrics.counter(
                f"{ns}.replay.actions_delivered", service=record.service_slug
            ).inc()
            engine.metrics.counter(
                f"{ns}.actions_delivered", service=record.service_slug
            ).inc()
            # Latency of the replayed event measured from its original
            # dispatch commitment — the T2A the user finally observes.
            engine.metrics.histogram(
                f"{ns}.replay.t2a_seconds", service=record.service_slug
            ).observe(max(0.0, engine.now - record.created_at))
            engine.metrics.gauge(
                f"{ns}.replay.in_replay", service=record.service_slug
            ).set(engine.actions_in_replay)
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                ns,
                "engine_replay_delivered",
                applet_id=record.applet_id,
                service=record.service_slug,
                event_id=record.event_id,
            )

    def _refail(self, record: PendingAction) -> None:
        engine = self.engine
        engine.actions_in_replay -= 1
        if engine.delivery is not None:
            engine.delivery.note_replay_dequeued(record.service_slug)
        self.actions_failed += 1
        if engine.metrics is not None:
            ns = engine.metrics_namespace
            engine.metrics.counter(
                f"{ns}.replay.actions_failed", service=record.service_slug
            ).inc()
            engine.metrics.gauge(
                f"{ns}.replay.in_replay", service=record.service_slug
            ).set(engine.actions_in_replay)
        engine._note_action_failure(record)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot folded into :meth:`IftttEngine.stats`."""
        return {
            "replay_drains": self.drains,
            "dead_letters_replayed": self.dead_letters_replayed,
            "replay_requests_sent": self.requests_sent,
            "replay_actions_delivered": self.actions_delivered,
            "replay_actions_failed": self.actions_failed,
        }

    def __repr__(self) -> str:
        return (
            f"<ReplayController replayed={self.dead_letters_replayed} "
            f"requests={self.requests_sent} delivered={self.actions_delivered}>"
        )
