"""The centralized IFTTT engine.

Implements the online applet-execution phase exactly as §2.2 profiles it:

* the engine periodically polls the trigger service — an HTTPS POST to the
  trigger URL carrying the user's access token, the service key, and a
  random request id, with a ``limit`` (batch size k, default 50);
* the trigger service answers with buffered trigger events; the engine
  deduplicates them by ``meta.id`` and, for each new event, contacts the
  action URL;
* realtime-API hints (``POST /ifttt/v1/webhooks/service/notify``) merely
  *hint*; the engine "has full control over trigger event queries and very
  likely ignores real-time API's hints" — honoured only for an allowlist
  of services (Alexa-like), reproducing the A5-A7 vs A1-A4 latency gap.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.engine.applet import Applet, ActionRef, AppletState, QueryRef, TriggerRef
from repro.engine.filters import Expr, FilterEvalError, parse as parse_filter
from repro.engine.config import EngineConfig
from repro.engine.delivery import (
    DeliveryController,
    HINT_DEFER,
    HINT_SHED,
    response_is_brownout,
)
from repro.engine.loops import RuntimeLoopDetector, StaticLoopAnalyzer, LoopError
from repro.engine.oauth import OAuthAuthority, TokenCache
from repro.engine.permissions import ServicePermissionModel
from repro.engine.poller import PollingPolicy
from repro.engine.push import PushController
from repro.engine.replay import ReplayController
from repro.engine.scheduler import HeapPollScheduler
from repro.engine.resilience import (
    BreakerState,
    CircuitBreaker,
    DeadLetter,
    PendingAction,
)
from repro.simcore.event import Event
from repro.net.address import Address
from repro.net.http import HttpNode, HttpRequest, HttpResponse
from repro.obs.metrics import COUNT_BUCKETS
from repro.services.partner import (
    ACTION_PATH,
    PUSH_NOTIFY_PATH,
    QUERY_PATH,
    REALTIME_NOTIFY_PATH,
    TRIGGER_PATH,
    PartnerService,
)
from repro.simcore.rng import Rng
from repro.simcore.trace import Trace


class AppletIdRangeError(RuntimeError):
    """An engine tried to allocate an applet id outside its shard range.

    Shard id ranges are disjoint by construction
    (:data:`~repro.engine.sharding.APPLET_ID_STRIDE` or the corpus-derived
    stride); silently crossing into a neighbour's range would make
    ``ShardedEngine.engine_for()`` route lifecycle calls to the wrong
    shard, so the overflow is an error at install time.
    """


@dataclass
class ServiceRegistration:
    """A published partner service, as the engine sees it."""

    slug: str
    address: Address
    service_key: str
    realtime: bool = False
    #: The negotiated push contract: the service declared ``push=True``
    #: *and* this engine's ``EngineConfig.push_policy`` is set.
    push: bool = False


class IftttEngine(HttpNode):
    """The trigger-action engine (a cloud HTTP node).

    Typical wiring::

        engine = IftttEngine(Address("engine.ifttt.cloud"), config, rng, trace)
        network.add_node(engine)
        key = engine.publish_service(hue_service)
        engine.connect_service("alice", hue_service, hue_authority, "password")
        applet = engine.install_applet("alice", "rain -> blue", trigger_ref, action_ref)
    """

    def __init__(
        self,
        address: Address,
        config: Optional[EngineConfig] = None,
        rng: Optional[Rng] = None,
        trace: Optional[Trace] = None,
        service_time: float = 0.01,
        metrics=None,
        metrics_namespace: str = "engine",
        applet_id_start: int = 100000,
        applet_id_limit: Optional[int] = None,
    ) -> None:
        super().__init__(address, service_time=service_time)
        self.config = config or EngineConfig()
        self.rng = rng or Rng(seed=0, name="engine")
        self.trace = trace
        # An explicit registry wins; otherwise Node.metrics falls back to
        # the network's shared registry once attached.
        self.metrics = metrics
        # Metric names and trace entities are emitted under this
        # namespace ("engine" standalone; "engine.shard<i>" when owned
        # by a ShardedEngine, giving each shard its own metrics scope).
        self.metrics_namespace = metrics_namespace
        self._ns = metrics_namespace
        self.tokens = TokenCache()
        self.permissions = ServicePermissionModel()
        self._services: Dict[str, ServiceRegistration] = {}
        self._service_objects: Dict[str, PartnerService] = {}
        # Per-applet execution state, as columns indexed by the applet's
        # slot, ``applet_id - applet_id_start`` (ids are dense per
        # engine, so a slot is a list/array index).  There is no
        # per-applet runtime object: at the 1M-applet fleet sizes the
        # benchmarks drive, a few bytes per column beat a slotted object
        # plus its dict entry (see docs/PERFORMANCE.md, "Per-applet
        # memory").  The scheduler keeps the slot's poll-heap state.
        #
        # slot -> the installed Applet; None after uninstall (or for an
        # id burnt by an install the static loop check refused)
        self._slot_applets: List[Optional[Applet]] = []
        # slot -> polling policy; one object is shared by the applets of
        # a trigger service when the policy learns nothing per applet
        # (see PollingPolicy.learns)
        self._policies: List[Optional[PollingPolicy]] = []
        self._polls = array("I")  # polls attempted (sent or shed)
        self._poll_attempts = array("I")  # failures in the current retry burst
        self._in_flight = bytearray()  # a poll request awaits its response
        # a hint-induced fast poll is outstanding (delivery admission
        # control keeps the per-service hint backlog exact with it)
        self._fast_pending = bytearray()
        # Sparse, because most applets have neither: compiled filter
        # code, and the dedupe window (a set plus its FIFO), allocated
        # on the first remembered event id by _remember_event.
        self._filters: Dict[int, Expr] = {}
        self._seen_ids: Dict[int, Set[int]] = {}
        self._seen_order: Dict[int, Deque[int]] = {}
        # trigger service slug -> the polling policy every applet of that
        # service shares, when the poll policy learns nothing per applet.
        self._shared_policies: Dict[str, PollingPolicy] = {}
        # trigger identity -> installed applet ids; an immutable tuple
        # (one small object per identity, and safe to iterate while an
        # install or uninstall replaces it).  Ids, not slots: the id int
        # is the Applet's own object, a slot would be one more.
        self._by_identity: Dict[str, Tuple[int, ...]] = {}
        # Shards carve out disjoint id ranges via applet_id_start, so a
        # fleet-wide applet id never collides across engines.
        # applet_id_limit caps how many ids this engine may allocate:
        # exceeding it would bleed into the next shard's range and make
        # ShardedEngine.engine_for() misroute lifecycle calls, so the
        # overflow fails loudly instead (AppletIdRangeError).
        self._applet_id_start = applet_id_start
        self._applet_id_limit = applet_id_limit
        self._key_counter = itertools.count(1)
        self.loop_detector = RuntimeLoopDetector(
            threshold=self.config.runtime_loop_threshold,
            window=self.config.runtime_loop_window,
        )
        self.realtime_hints_received = 0
        self.realtime_hints_honoured = 0
        self.polls_sent = 0
        self.actions_dispatched = 0
        self.poll_failures = 0
        self.action_failures = 0
        self.queries_sent = 0
        self.query_failures = 0
        self.filter_skips = 0
        self.filter_errors = 0
        # Resilience state: per-service breakers, retry counters, and the
        # dead-letter sink that guarantees no action is silently lost.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.polls_shed = 0
        self.poll_retries = 0
        self.actions_shed = 0
        self.action_retries = 0
        self.actions_delivered = 0
        self.actions_in_retry = 0
        self.dead_letters: List[DeadLetter] = []
        # Outstanding action-retry timers, keyed by a monotonic sequence
        # number (insertion-ordered, so cancellation on applet removal is
        # deterministic).  Without this ledger a retry scheduled for a
        # since-removed applet would still fire and deliver on its
        # behalf.
        self._retry_timers: Dict[int, Tuple[PendingAction, Event]] = {}
        self._retry_seq = itertools.count()
        # Realtime-hint fallback: hints for a service whose breaker is
        # open are parked (ordered per service) instead of scheduling
        # fast polls that are guaranteed to be shed; they resume when the
        # half-open probe succeeds and the breaker closes.
        self.realtime_hints_suppressed = 0
        self.realtime_hints_resumed = 0
        self._suppressed_hints: Dict[str, Dict[str, None]] = {}
        # Dead-letter replay (None unless EngineConfig.replay_policy is
        # set): in_replay is the fourth state of the conservation
        # invariant — dispatched == delivered + in_retry + dead + in_replay.
        self.actions_in_replay = 0
        self.replay: Optional[ReplayController] = (
            ReplayController(self, self.config.replay_policy)
            if self.config.replay_policy is not None
            else None
        )
        # Health-aware adaptive delivery (None unless
        # EngineConfig.delivery_policy is set): per-service EWMA health
        # stretches poll intervals and retry backoffs under brownout,
        # watermarked admission bounds the hint and retry queues, and
        # the degradation ladder is exported per service.  When None the
        # engine is byte-identical to the pre-delivery behaviour.
        self.delivery: Optional[DeliveryController] = (
            DeliveryController(self, self.config.delivery_policy)
            if self.config.delivery_policy is not None
            else None
        )
        # Push-first delivery (None unless EngineConfig.push_policy is
        # set): partner services with an accepted contract POST event
        # payloads to the push webhook; the controller coalesces them
        # into batched drains and degrades push→hint→poll per service
        # under backlog pressure.  When None the webhook route isn't
        # even registered and the engine is byte-identical to the
        # pre-push behaviour.
        self.push: Optional[PushController] = (
            PushController(self, self.config.push_policy)
            if self.config.push_policy is not None
            else None
        )
        # Poll dispatch: one wake event per engine pops batches of due
        # polls.  See repro.engine.scheduler.
        self._scheduler = HeapPollScheduler(self)
        # Hot-path metric handles.  The registry get-or-create path
        # rebuilds a label dict and a sorted label tuple on every call;
        # at fleet scale that dominates the dispatch loop, so the
        # per-poll instruments are resolved once and cached.  The cache
        # is keyed to the registry's identity: Node.metrics can change
        # when the engine attaches to a network, and a swap invalidates
        # every cached handle at once.
        self._m_registry = None
        self._m_polls_sent: Dict[str, Any] = {}
        self._m_poll_rtt = None
        self._m_poll_batch = None
        self._m_events_observed = None
        # Per-action handles, cached the same way but resolved lazily (an
        # engine that never dispatches must not register them) and keyed
        # to the registry separately from the eager per-poll ones above.
        self._m_action_registry = None
        self._m_actions_dispatched: Dict[str, Any] = {}
        self._m_actions_delivered: Dict[str, Any] = {}
        self._m_t2a: Dict[str, Any] = {}
        self._m_action_rtt = None
        self._n_polls_sent = f"{metrics_namespace}.polls_sent"
        self._n_poll_rtt = f"{metrics_namespace}.poll_rtt_seconds"
        self._n_poll_batch = f"{metrics_namespace}.poll_batch_new"
        self._n_events_observed = f"{metrics_namespace}.events_observed"
        self._n_poll_interval = f"{metrics_namespace}.poll_interval_seconds"
        self.add_route("POST", REALTIME_NOTIFY_PATH, self._handle_realtime_hint)
        if self.push is not None:
            self.add_route("POST", PUSH_NOTIFY_PATH, self._handle_push_notification)

    # -- service publication ------------------------------------------------------

    def publish_service(self, service: PartnerService) -> str:
        """Publish a partner service; issues and returns its service key.

        Mirrors the onboarding in §2.2: the service exposes its base URL
        and endpoints, and "IFTTT will generate for the service a key,
        which will be embedded in future message exchanges".
        """
        if service.slug in self._services:
            raise ValueError(f"service {service.slug!r} already published")
        # Shard engines qualify keys with their namespace so every shard
        # of a fleet issues a distinct key for the same service — keys
        # stay attributable and individually revocable.
        issuer = "" if self._ns == "engine" else f"{self._ns}-"
        key = f"key-{issuer}{service.slug}-{next(self._key_counter):04d}"
        # Contract negotiation: the service's push *capability* becomes
        # an accepted contract only when this engine runs a push policy.
        push = self.config.push_policy is not None and service.push
        registration = ServiceRegistration(
            slug=service.slug,
            address=service.address,
            service_key=key,
            realtime=service.realtime,
            push=push,
        )
        self._services[service.slug] = registration
        self._service_objects[service.slug] = service
        service.published(self.address, key, push=push)
        self.permissions.register_service(service.slug, service.trigger_slugs, service.action_slugs)
        return key

    def service_registration(self, slug: str) -> ServiceRegistration:
        """Registration record for a published service."""
        return self._services[slug]

    @property
    def published_slugs(self) -> List[str]:
        """Slugs of all published services."""
        return sorted(self._services)

    # -- user connection (OAuth2) ---------------------------------------------------

    def connect_service(
        self,
        user: str,
        service: PartnerService,
        authority: OAuthAuthority,
        password: str,
    ) -> str:
        """Run the OAuth2 flow connecting ``user`` to ``service``.

        The user authenticates at the provider's page (``authorize``), the
        engine exchanges the code for a token, caches it, and the provider
        marks it valid for API calls.  Returns the access token.
        """
        if service.slug not in self._services:
            raise KeyError(f"service {service.slug!r} is not published")
        code = authority.authorize(user, password)
        grant = authority.exchange(code)
        self.tokens.store(grant)
        service.grant_token(grant.access_token)
        self.permissions.grant_all_scopes(user, service.slug)
        return grant.access_token

    # -- applet lifecycle --------------------------------------------------------------

    def install_applet(
        self,
        user: str,
        name: str,
        trigger: TriggerRef,
        action: ActionRef,
        author: Optional[str] = None,
        extra_actions: Tuple[ActionRef, ...] = (),
        queries: Tuple[QueryRef, ...] = (),
        filter_code: Optional[str] = None,
    ) -> Applet:
        """Install and enable an applet for a user.

        ``extra_actions``, ``queries``, and ``filter_code`` are the
        multi-action / queries / conditions features (§6 future work);
        filter code is validated (parsed) at install time, as the real
        platform validates filter code at save time.

        Raises ``KeyError`` for unpublished services,
        :class:`~repro.engine.filters.FilterSyntaxError` for invalid
        filter code, and :class:`~repro.engine.loops.LoopError` if static
        loop checking is enabled and the new applet closes a channel
        cycle.
        """
        referenced = [trigger.service_slug, action.service_slug]
        referenced += [ref.service_slug for ref in extra_actions]
        referenced += [ref.service_slug for ref in queries]
        for slug in referenced:
            if slug not in self._services:
                raise KeyError(f"service {slug!r} is not published")
        filter_expr = parse_filter(filter_code) if filter_code is not None else None
        slot = len(self._slot_applets)
        applet_id = self._applet_id_start + slot
        if self._applet_id_limit is not None and slot >= self._applet_id_limit:
            raise AppletIdRangeError(
                f"engine {self.address} exhausted its applet-id range "
                f"[{self._applet_id_start}, "
                f"{self._applet_id_start + self._applet_id_limit}): installing "
                f"applet #{applet_id} would collide with the next shard's "
                "range; raise the shard stride (ShardedEngine expected_applets "
                "/ applet_id_stride) or add shards"
            )
        # The id is taken from here on, even if the loop check refuses
        # the applet: its slot then stays empty.
        self._add_slot()
        applet = Applet(
            applet_id=applet_id,
            name=name,
            user=user,
            trigger=trigger,
            action=action,
            author=author,
            extra_actions=tuple(extra_actions),
            queries=tuple(queries),
            filter_code=filter_code,
        )
        if self.config.static_loop_check:
            analyzer = StaticLoopAnalyzer(self._service_objects)
            cycle = analyzer.cycle_introduced_by(
                [other for other in self.applets if other.user == user], applet
            )
            if cycle is not None:
                raise LoopError(f"applet would create a loop: {[a.describe() for a in cycle]}")
        policy = self._shared_policies.get(trigger.service_slug)
        if policy is None:
            policy = self._new_applet_policy(trigger.service_slug)
            if not self.config.poll_policy.learns:
                self._shared_policies[trigger.service_slug] = policy
        self._slot_applets[slot] = applet
        self._policies[slot] = policy
        if filter_expr is not None:
            self._filters[slot] = filter_expr
        identity = applet.trigger_identity
        self._by_identity[identity] = self._by_identity.get(identity, ()) + (applet_id,)
        first_poll = self.config.initial_poll_delay
        if self.config.initial_poll_jitter > 0:
            first_poll += self.rng.uniform(0, self.config.initial_poll_jitter)
        self._scheduler.schedule(slot, first_poll)
        return applet

    def _add_slot(self) -> None:
        """Append one empty slot to every per-applet column."""
        self._slot_applets.append(None)
        self._policies.append(None)
        self._polls.append(0)
        self._poll_attempts.append(0)
        self._in_flight.append(0)
        self._fast_pending.append(0)
        self._scheduler.add_slot()

    def _new_applet_policy(self, service_slug: str) -> PollingPolicy:
        """A fresh clone of the poll policy, wrapped for ``service_slug``."""
        policy = self.config.poll_policy.clone()
        if self.delivery is not None:
            # Health-based adaptation wraps the policy clone around the
            # *shared* per-service health tracker — one applet's failed
            # poll slows every poll aimed at the service.
            policy = self.delivery.wrap(policy, service_slug)
        if self.push is not None and self._services[service_slug].push:
            # Push contract: pushes deliver the events, so polling drops
            # to the safety-net cadence — except on the ladder's poll
            # rung, where the wrapped policy (and through it any
            # adaptive layer) draws verbatim.
            policy = self.push.wrap(policy, service_slug)
        return policy

    def has_applet(self, applet_id: int) -> bool:
        """Whether ``applet_id`` is installed on this engine."""
        slot = applet_id - self._applet_id_start
        return 0 <= slot < len(self._slot_applets) and self._slot_applets[slot] is not None

    def _slot_of(self, applet_id: int) -> int:
        """The column slot of an installed applet (``KeyError`` if none)."""
        if not self.has_applet(applet_id):
            raise KeyError(applet_id)
        return applet_id - self._applet_id_start

    def applet(self, applet_id: int) -> Applet:
        """Look up an installed applet."""
        return self._slot_applets[self._slot_of(applet_id)]

    def policy_of(self, applet_id: int) -> PollingPolicy:
        """The polling policy an installed applet's polls are paced by."""
        return self._policies[self._slot_of(applet_id)]

    @property
    def applets(self) -> List[Applet]:
        """All installed applets, in install order."""
        return [applet for applet in self._slot_applets if applet is not None]

    def disable_applet(self, applet_id: int) -> None:
        """Stop polling for an applet (its scheduled poll is canceled)."""
        slot = self._slot_of(applet_id)
        applet = self._slot_applets[slot]
        applet.state = AppletState.DISABLED
        self._scheduler.cancel(slot)
        self._clear_fast_poll(slot, applet)

    def enable_applet(self, applet_id: int) -> None:
        """Re-enable a disabled applet and resume polling."""
        slot = self._slot_of(applet_id)
        applet = self._slot_applets[slot]
        if applet.enabled:
            return
        applet.state = AppletState.ENABLED
        self._schedule_next_poll(slot, self.config.initial_poll_delay)

    def uninstall_applet(self, applet_id: int) -> Applet:
        """Remove an applet entirely: cancel polling, drop runtime state.

        The trigger service keeps its identity buffer (services don't
        learn about uninstalls synchronously in the real platform); the
        engine simply stops asking.

        Outstanding action-*retry* timers are cancelled too — a retry
        firing after removal would deliver on behalf of an uninstalled
        applet and corrupt ``actions_in_retry``.  The parked records are
        dead-lettered with reason ``applet_removed`` (not dropped), so
        the conservation invariant survives the removal.

        A poll already in flight still completes (its new events run,
        deduped and filtered as before); the slot's policy, filter and
        dedupe state are released when that response arrives.
        """
        slot = self._slot_of(applet_id)
        applet = self._slot_applets[slot]
        self._slot_applets[slot] = None
        applet.state = AppletState.DISABLED
        self._scheduler.cancel(slot)
        self._clear_fast_poll(slot, applet)
        for seq in [
            seq
            for seq, (record, _) in self._retry_timers.items()
            if record.applet_id == applet_id
        ]:
            record, event = self._retry_timers.pop(seq)
            event.cancel()
            self.actions_in_retry -= 1
            if self.delivery is not None:
                self.delivery.note_retry_dequeued(record.service_slug)
            self._dead_letter(record, "applet_removed")
        identity = applet.trigger_identity
        owners = tuple(
            owner for owner in self._by_identity.get(identity, ()) if owner != applet_id
        )
        if owners:
            self._by_identity[identity] = owners
        else:
            self._by_identity.pop(identity, None)
        if not self._in_flight[slot]:
            self._release_slot(slot)
        return applet

    def _release_slot(self, slot: int) -> None:
        """Drop the object state an uninstalled applet's slot still holds."""
        self._policies[slot] = None
        self._filters.pop(slot, None)
        self._seen_ids.pop(slot, None)
        self._seen_order.pop(slot, None)

    def poll_count(self, applet_id: int) -> int:
        """How many polls the engine has sent for an applet."""
        return self._polls[self._slot_of(applet_id)]

    def poll_dispatch_stats(self) -> Dict[str, Any]:
        """The poll scheduler's occupancy/lifecycle snapshot.

        ``heap_entries``/``live_entries``/``stale_entries`` (the
        lazy-cancellation ledger), ``compactions``, ``wakes``, and
        ``batched_polls``.  See ``docs/PERFORMANCE.md``.
        """
        return self._scheduler.stats()

    def stats(self) -> Dict[str, int]:
        """A snapshot of the engine's counters (for CLIs and dashboards)."""
        applets = self.applets
        return {
            "services": len(self._services),
            "applets": len(applets),
            "applets_enabled": sum(1 for applet in applets if applet.enabled),
            "polls_sent": self.polls_sent,
            "poll_failures": self.poll_failures,
            "actions_dispatched": self.actions_dispatched,
            "action_failures": self.action_failures,
            "queries_sent": self.queries_sent,
            "query_failures": self.query_failures,
            "filter_skips": self.filter_skips,
            "filter_errors": self.filter_errors,
            "realtime_hints_received": self.realtime_hints_received,
            "realtime_hints_honoured": self.realtime_hints_honoured,
            "realtime_hints_suppressed": self.realtime_hints_suppressed,
            "realtime_hints_resumed": self.realtime_hints_resumed,
            "polls_shed": self.polls_shed,
            "poll_retries": self.poll_retries,
            "actions_shed": self.actions_shed,
            "action_retries": self.action_retries,
            "actions_delivered": self.actions_delivered,
            "actions_in_retry": self.actions_in_retry,
            "actions_in_replay": self.actions_in_replay,
            "dead_letters": len(self.dead_letters),
            **(
                self.replay.stats()
                if self.replay is not None
                else {
                    "replay_drains": 0,
                    "dead_letters_replayed": 0,
                    "replay_requests_sent": 0,
                    "replay_actions_delivered": 0,
                    "replay_actions_failed": 0,
                }
            ),
            **(
                self.delivery.stats()
                if self.delivery is not None
                else {
                    "delivery_hints_deferred": 0,
                    "delivery_hints_shed": 0,
                    "delivery_retries_deferred": 0,
                    "delivery_overload_dead_letters": 0,
                    "delivery_replay_drains_deferred": 0,
                    "delivery_intervals_stretched": 0,
                }
            ),
            **(
                self.push.stats()
                if self.push is not None
                else {
                    "push_notifications_received": 0,
                    "push_events_ingested": 0,
                    "push_batches_drained": 0,
                    "push_degraded_to_hint": 0,
                    "push_shed_to_poll": 0,
                    "push_notifications_parked": 0,
                }
            ),
        }

    # -- resilience: per-service circuit breakers --------------------------------------

    def breaker_for(self, service_slug: str) -> Optional[CircuitBreaker]:
        """The (lazily created) breaker guarding one service, or ``None``.

        Breakers exist only when :attr:`EngineConfig.breaker_policy` is
        set; each one reports its transitions into the
        ``engine.breaker_transitions`` counter family and the
        ``engine.breaker_state`` gauge (closed=0, half-open=1, open=2).
        """
        policy = self.config.breaker_policy
        if policy is None:
            return None
        breaker = self._breakers.get(service_slug)
        if breaker is None:
            breaker = CircuitBreaker(
                policy,
                on_transition=lambda old, new, at, slug=service_slug: (
                    self._on_breaker_transition(slug, old, new, at)
                ),
            )
            self._breakers[service_slug] = breaker
            # The state gauge is live from birth, not first-transition:
            # a service whose breaker never trips still reports closed=0,
            # so dashboards (and the shard-prefix fold) see every guarded
            # service, not just the ones that have already failed.
            if self.metrics is not None:
                self.metrics.gauge(
                    f"{self._ns}.breaker_state", service=service_slug
                ).set(BreakerState.CLOSED.level)
        return breaker

    def breaker_levels(self) -> Dict[str, int]:
        """Current numeric breaker level per service (0/1/2 =
        closed/half-open/open) — the live values behind the
        ``{ns}.breaker_state`` gauge family."""
        return {slug: b.state.level for slug, b in sorted(self._breakers.items())}

    def breaker_states(self) -> Dict[str, str]:
        """Current breaker state per service (for dashboards and tests)."""
        return {slug: b.state.value for slug, b in sorted(self._breakers.items())}

    def _on_breaker_transition(
        self, slug: str, old: BreakerState, new: BreakerState, at: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"{self._ns}.breaker_transitions",
                service=slug, from_state=old.value, to_state=new.value,
            ).inc()
            self.metrics.gauge(f"{self._ns}.breaker_state", service=slug).set(new.level)
        if self.trace is not None:
            self.trace.record(
                at, self._ns, "engine_breaker_transition",
                service=slug, from_state=old.value, to_state=new.value,
            )
        if self.delivery is not None:
            # Mirror the breaker level into the service's health tracker
            # (OPEN/HALF_OPEN suspend stretching so the half-open probe
            # keeps the baseline cadence) and onto the degradation ladder.
            self.delivery.on_breaker_transition(slug, old, new)
        if new is BreakerState.CLOSED:
            # The service healed (half-open probe succeeded): resume any
            # suppressed realtime hints and, when replay is configured,
            # drain its dead letters back through delivery.
            self._resume_suppressed_hints(slug)
            if self.replay is not None:
                self.replay.on_service_healed(slug)

    # -- dead-letter replay -------------------------------------------------------------

    def replay_dead_letters(self, service_slug: Optional[str] = None) -> None:
        """Explicitly replay dead letters (all services, or just one).

        Requires :attr:`EngineConfig.replay_policy`; services are drained
        in first-dead-letter order so replay bursts are deterministic.
        """
        if self.replay is None:
            raise RuntimeError(
                "dead-letter replay is disabled; set EngineConfig.replay_policy"
            )
        if service_slug is not None:
            slugs = [service_slug]
        else:
            ordered: Dict[str, None] = {}
            for letter in self.dead_letters:
                ordered.setdefault(letter.service_slug, None)
            slugs = list(ordered)
        for slug in slugs:
            self.replay.replay_service(slug)

    # -- the poll loop ----------------------------------------------------------------

    def _hot_metrics(self, metrics) -> None:
        """(Re)bind the cached per-poll instrument handles to ``metrics``."""
        self._m_registry = metrics
        self._m_polls_sent = {}
        self._m_poll_rtt = metrics.histogram(self._n_poll_rtt)
        self._m_poll_batch = metrics.histogram(self._n_poll_batch, bounds=COUNT_BUCKETS)
        self._m_events_observed = metrics.counter(self._n_events_observed)

    def _action_metrics(self, metrics) -> None:
        """Drop the cached per-action handles and key them to ``metrics``."""
        self._m_action_registry = metrics
        self._m_actions_dispatched = {}
        self._m_actions_delivered = {}
        self._m_t2a = {}
        self._m_action_rtt = None

    def _schedule_next_poll(self, slot: int, delay: float) -> None:
        if not self._slot_applets[slot].enabled:
            return
        self._scheduler.schedule(slot, delay)

    def _poll(self, slot: int) -> None:
        applet = self._slot_applets[slot]
        if self._fast_pending[slot]:
            # The hint-induced fast poll is firing (or no-oping): its
            # backlog slot frees either way.
            self._fast_pending[slot] = 0
            if self.delivery is not None:
                self.delivery.note_fast_poll_done(applet.trigger.service_slug)
        if not applet.enabled or self._in_flight[slot]:
            return
        breaker = self.breaker_for(applet.trigger.service_slug)
        if breaker is not None and not breaker.allow(self.now):
            # Open breaker: shed the poll instead of hammering a failing
            # service.  The attempt still counts toward the applet's poll
            # tally (the engine *tried*), but no request leaves the node;
            # the regular cadence resumes and allow() will half-open the
            # breaker once the recovery timeout passes.
            self._polls[slot] += 1
            self.polls_shed += 1
            if self.metrics is not None:
                self.metrics.counter(
                    f"{self._ns}.polls_shed", service=applet.trigger.service_slug
                ).inc()
            if self.trace is not None:
                self.trace.record(
                    self.now,
                    self._ns,
                    "engine_poll_shed",
                    applet_id=applet.applet_id,
                    service=applet.trigger.service_slug,
                )
            self._schedule_next_poll(
                slot,
                self._policies[slot].sample_interval(
                    self.rng, None, service=applet.trigger.service_slug
                ),
            )
            return
        registration = self._services[applet.trigger.service_slug]
        self._in_flight[slot] = 1
        self._polls[slot] += 1
        self.polls_sent += 1
        metrics = self.metrics
        if metrics is not None:
            if metrics is not self._m_registry:
                self._hot_metrics(metrics)
            slug = applet.trigger.service_slug
            counter = self._m_polls_sent.get(slug)
            if counter is None:
                counter = self._m_polls_sent[slug] = metrics.counter(
                    self._n_polls_sent, service=slug
                )
            counter.inc()
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_poll_sent",
                applet_id=applet.applet_id,
                identity=applet.trigger_identity,
                trigger=applet.trigger.trigger_slug,
            )
        self.post(
            registration.address,
            TRIGGER_PATH + applet.trigger.trigger_slug,
            body={
                "trigger_identity": applet.trigger_identity,
                "triggerFields": dict(applet.trigger.fields),
                "limit": self.config.batch_limit,
                "request_id": f"req-{self.rng.randint(10**8, 10**9 - 1)}",
            },
            headers=self._auth_headers(registration, applet.user),
            on_response=lambda response, applet=applet: self._on_poll_response(
                applet, response
            ),
            timeout=self.config.poll_timeout,
        )

    def _auth_headers(self, registration: ServiceRegistration, user: str) -> Dict[str, Any]:
        headers: Dict[str, Any] = {"IFTTT-Service-Key": registration.service_key}
        token = self.tokens.lookup(user, registration.slug)
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _on_poll_response(self, applet: Applet, response: HttpResponse) -> None:
        # The applet, not its slot's current entry: an applet uninstalled
        # while this poll was in flight still finishes it.
        slot = applet.applet_id - self._applet_id_start
        self._in_flight[slot] = 0
        metrics = self.metrics
        breaker = self.breaker_for(applet.trigger.service_slug)
        new_events: List[Dict[str, Any]] = []
        if response.ok:
            if breaker is not None:
                breaker.record_success(self.now)
            if self.delivery is not None:
                self.delivery.note_result(applet.trigger.service_slug, ok=True)
            self._poll_attempts[slot] = 0
            wire_events = (response.body or {}).get("data", [])
            seen_ids = self._seen_ids
            # The wire carries newest-first; process in chronological order.
            for wire in reversed(wire_events):
                event_id = wire["meta"]["id"]
                if event_id in seen_ids.get(slot, ()):
                    continue
                self._remember_event(slot, event_id)
                new_events.append(wire)
        else:
            self.poll_failures += 1
            if breaker is not None:
                breaker.record_failure(self.now)
            if self.delivery is not None:
                self.delivery.note_result(
                    applet.trigger.service_slug,
                    ok=False,
                    brownout=response_is_brownout(response),
                )
            if metrics is not None:
                metrics.counter(
                    f"{self._ns}.poll_failures", status=response.status
                ).inc()
        if metrics is not None:
            if metrics is not self._m_registry:
                self._hot_metrics(metrics)
            self._m_poll_rtt.observe(response.elapsed)
            self._m_poll_batch.observe(len(new_events))
            if new_events:
                self._m_events_observed.inc(len(new_events))
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_poll_response",
                applet_id=applet.applet_id,
                status=response.status,
                returned=len((response.body or {}).get("data", [])) if response.ok else 0,
                new=len(new_events),
            )
        policy = self._policies[slot]
        policy.observe_events(len(new_events))
        for wire in new_events:
            self._process_event(applet, wire)
        delay = None
        if not response.ok:
            self._poll_attempts[slot] += 1
            retry = self.config.retry_policy
            if (
                retry is not None
                and not retry.exhausted(self._poll_attempts[slot])
                and (breaker is None or breaker.state is not BreakerState.OPEN)
            ):
                # Retry the failed poll on capped exponential backoff —
                # unless the breaker just opened, in which case the shed
                # path owns pacing until the service recovers.
                self.poll_retries += 1
                if metrics is not None:
                    metrics.counter(
                        f"{self._ns}.poll_retries", service=applet.trigger.service_slug
                    ).inc()
                delay = retry.backoff(self._poll_attempts[slot], self.rng)
                if self.delivery is not None:
                    # Stretch the retry burst by the same health factor
                    # regular polls get — this is what turns a brownout's
                    # retry storm into a back-off.
                    delay *= self.delivery.health_for(
                        applet.trigger.service_slug
                    ).stretch_factor(self.rng)
            else:
                self._poll_attempts[slot] = 0  # burst over; back to the regular cadence
        if delay is None:
            delay = policy.sample_interval(
                self.rng,
                metrics,
                metric_name=self._n_poll_interval,
                service=applet.trigger.service_slug,
            )
        if self._slot_applets[slot] is None:
            self._release_slot(slot)  # uninstalled while this poll was in flight
        else:
            self._schedule_next_poll(slot, delay)

    def _remember_event(self, slot: int, event_id: int) -> None:
        seen_order = self._seen_order.get(slot)
        if seen_order is None:
            # First event for this applet: allocate its dedupe state.
            seen_ids = self._seen_ids[slot] = set()
            seen_order = self._seen_order[slot] = deque()
        else:
            seen_ids = self._seen_ids[slot]
        seen_ids.add(event_id)
        seen_order.append(event_id)
        while len(seen_order) > self.config.dedupe_window:
            seen_ids.discard(seen_order.popleft())

    # -- event processing: queries -> condition -> actions ----------------------------------

    def _process_event(self, applet: Applet, wire_event: Dict[str, Any]) -> None:
        """Run one trigger event through queries, the filter, and actions."""
        # Read the filter now: the query round trips may outlast the
        # applet's installation, and the event was committed to it.
        filter_expr = self._filters.get(applet.applet_id - self._applet_id_start)
        if applet.queries:
            self._run_queries(applet, filter_expr, wire_event, list(applet.queries), {})
        else:
            self._finish_event(applet, filter_expr, wire_event, {})

    def _run_queries(
        self,
        applet: Applet,
        filter_expr: Optional[Expr],
        wire_event: Dict[str, Any],
        remaining: List[QueryRef],
        results: Dict[str, Any],
    ) -> None:
        if not remaining:
            self._finish_event(applet, filter_expr, wire_event, results)
            return
        query = remaining[0]
        registration = self._services[query.service_slug]
        self.queries_sent += 1

        def on_response(response, q=query):
            if response.ok:
                results[q.query_slug] = (response.body or {}).get("data", [])
            else:
                self.query_failures += 1
                results[q.query_slug] = []
            self._run_queries(applet, filter_expr, wire_event, remaining[1:], results)

        self.post(
            registration.address,
            QUERY_PATH + query.query_slug,
            body={"queryFields": dict(query.fields), "user": applet.user},
            headers=self._auth_headers(registration, applet.user),
            on_response=on_response,
            timeout=self.config.poll_timeout,
        )

    def _finish_event(
        self,
        applet: Applet,
        filter_expr: Optional[Expr],
        wire_event: Dict[str, Any],
        query_results: Dict[str, Any],
    ) -> None:
        ingredients = wire_event.get("ingredients", {})
        if filter_expr is not None:
            # Single-row query results flatten to the row dict so filter
            # code can say ``queries.thermostat.temperature < 25``.
            flattened = {
                slug: (rows[0] if isinstance(rows, list) and len(rows) == 1 else rows)
                for slug, rows in query_results.items()
            }
            namespace = {
                "trigger": dict(ingredients),
                "queries": flattened,
                "meta": {"time": self.now, "applet_id": applet.applet_id},
            }
            try:
                verdict = bool(filter_expr.evaluate(namespace))
            except FilterEvalError:
                self.filter_errors += 1
                if self.metrics is not None:
                    self.metrics.counter(f"{self._ns}.runs_failed", reason="filter_error").inc()
                if self.trace is not None:
                    self.trace.record(
                        self.now, self._ns, "engine_filter_error",
                        applet_id=applet.applet_id,
                    )
                return
            if not verdict:
                self.filter_skips += 1
                if self.metrics is not None:
                    self.metrics.counter(f"{self._ns}.runs_skipped", reason="filter").inc()
                if self.trace is not None:
                    self.trace.record(
                        self.now, self._ns, "engine_filter_skipped",
                        applet_id=applet.applet_id,
                        event_id=wire_event["meta"]["id"],
                    )
                return
        for action in (applet.action, *applet.extra_actions):
            self._dispatch_action(applet, action, wire_event)

    # -- action dispatch ------------------------------------------------------------------

    def _dispatch_action(
        self, applet: Applet, action: ActionRef, wire_event: Dict[str, Any]
    ) -> None:
        registration = self._services[action.service_slug]
        ingredients = wire_event.get("ingredients", {})
        fields = action.resolve_fields(ingredients)
        applet.executions += 1
        self.actions_dispatched += 1
        metrics = self.metrics
        if metrics is not None:
            if metrics is not self._m_action_registry:
                self._action_metrics(metrics)
            slug = action.service_slug
            counter = self._m_actions_dispatched.get(slug)
            if counter is None:
                counter = self._m_actions_dispatched[slug] = metrics.counter(
                    f"{self._ns}.actions_dispatched", service=slug
                )
            counter.inc()
            # Trigger-to-action latency as the engine sees it: action
            # dispatch time minus the event's ``meta.timestamp`` (when
            # the trigger condition was met at the service) — the §4
            # headline metric, dominated by the poll wait.
            triggered_at = wire_event.get("meta", {}).get("timestamp")
            if triggered_at is not None:
                t2a = self._m_t2a.get(slug)
                if t2a is None:
                    t2a = self._m_t2a[slug] = metrics.histogram(
                        f"{self._ns}.t2a_seconds", service=slug
                    )
                t2a.observe(max(0.0, self.now - triggered_at))
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_action_sent",
                applet_id=applet.applet_id,
                event_id=wire_event["meta"]["id"],
                action=action.action_slug,
                service=action.service_slug,
            )
        if self.config.runtime_loop_detection:
            if self.loop_detector.observe(applet.applet_id, self.now):
                self.disable_applet(applet.applet_id)
                if metrics is not None:
                    metrics.counter(f"{self._ns}.loops_killed").inc()
                if self.trace is not None:
                    self.trace.record(
                        self.now,
                        self._ns,
                        "engine_loop_killswitch",
                        applet_id=applet.applet_id,
                    )
                return
        record = PendingAction(
            applet_id=applet.applet_id,
            service_slug=action.service_slug,
            action_slug=action.action_slug,
            fields=fields,
            user=applet.user,
            event_id=wire_event["meta"]["id"],
            created_at=self.now,
        )
        self._send_action(record)

    def _send_action(self, record: PendingAction) -> None:
        """One delivery attempt for a committed action.

        Every call consumes an attempt, including breaker-shed ones — so
        an action aimed at a service that never recovers drains its retry
        budget and dead-letters instead of looping forever.
        """
        record.attempts += 1
        breaker = self.breaker_for(record.service_slug)
        if breaker is not None and not breaker.allow(self.now):
            self.actions_shed += 1
            if self.metrics is not None:
                self.metrics.counter(
                    f"{self._ns}.actions_shed", service=record.service_slug
                ).inc()
            if self.trace is not None:
                self.trace.record(
                    self.now,
                    self._ns,
                    "engine_action_shed",
                    applet_id=record.applet_id,
                    service=record.service_slug,
                    attempt=record.attempts,
                )
            self._note_action_failure(record)
            return
        registration = self._services[record.service_slug]
        self.post(
            registration.address,
            ACTION_PATH + record.action_slug,
            body={"actionFields": record.fields, "user": record.user},
            headers=self._auth_headers(registration, record.user),
            on_response=lambda response, r=record: self._on_action_result(r, response),
            timeout=self.config.action_timeout,
        )

    def _on_action_result(self, record: PendingAction, response: HttpResponse) -> None:
        record.last_status = response.status
        breaker = self.breaker_for(record.service_slug)
        metrics = self.metrics
        if metrics is not None:
            if metrics is not self._m_action_registry:
                self._action_metrics(metrics)
            rtt = self._m_action_rtt
            if rtt is None:
                rtt = self._m_action_rtt = metrics.histogram(
                    f"{self._ns}.action_rtt_seconds"
                )
            rtt.observe(response.elapsed)
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_action_ack",
                applet_id=record.applet_id,
                status=response.status,
                attempt=record.attempts,
            )
        if response.ok:
            if breaker is not None:
                breaker.record_success(self.now)
            if self.delivery is not None:
                self.delivery.note_result(record.service_slug, ok=True)
            self.actions_delivered += 1
            if metrics is not None:
                slug = record.service_slug
                counter = self._m_actions_delivered.get(slug)
                if counter is None:
                    counter = self._m_actions_delivered[slug] = metrics.counter(
                        f"{self._ns}.actions_delivered", service=slug
                    )
                counter.inc()
            return
        self.action_failures += 1
        if breaker is not None:
            breaker.record_failure(self.now)
        if self.delivery is not None:
            self.delivery.note_result(
                record.service_slug,
                ok=False,
                brownout=response_is_brownout(response),
            )
        if metrics is not None:
            metrics.counter(f"{self._ns}.action_failures", status=response.status).inc()
        self._note_action_failure(record)

    def _note_action_failure(self, record: PendingAction) -> None:
        """Retry a failed delivery, or seal it into the dead-letter sink."""
        retry = self.config.retry_policy
        if retry is not None and not retry.exhausted(record.attempts):
            if self.delivery is not None and not self.delivery.admit_retry(
                record.service_slug
            ):
                # Retry queue at its high watermark: shedding, not
                # queueing.  The action is accounted, never silent.
                self._dead_letter(record, "overload")
                return
            self.action_retries += 1
            self.actions_in_retry += 1
            if self.metrics is not None:
                self.metrics.counter(
                    f"{self._ns}.action_retries", service=record.service_slug
                ).inc()
            delay = retry.backoff(record.attempts, self.rng)
            if self.delivery is not None:
                delay = self.delivery.stretch_retry_delay(
                    record.service_slug, delay, self.rng
                )
                self.delivery.note_retry_enqueued(record.service_slug)
            if self.trace is not None:
                self.trace.record(
                    self.now,
                    self._ns,
                    "engine_action_retry",
                    applet_id=record.applet_id,
                    service=record.service_slug,
                    attempt=record.attempts,
                    delay=round(delay, 6),
                )
            seq = next(self._retry_seq)
            event = self.sim.schedule(
                delay, self._retry_action, seq, label=f"action-retry#{record.applet_id}"
            )
            self._retry_timers[seq] = (record, event)
            return
        reason = "max_attempts_exhausted" if retry is not None else "retries_disabled"
        self._dead_letter(record, reason)

    def _retry_action(self, seq: int) -> None:
        record, _ = self._retry_timers.pop(seq)
        self.actions_in_retry -= 1
        if self.delivery is not None:
            self.delivery.note_retry_dequeued(record.service_slug)
        self._send_action(record)

    def _dead_letter(self, record: PendingAction, reason: str) -> None:
        letter = DeadLetter.from_pending(record, dead_at=self.now, reason=reason)
        self.dead_letters.append(letter)
        if self.metrics is not None:
            self.metrics.counter(
                f"{self._ns}.dead_letters", service=record.service_slug
            ).inc()
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_action_dead_letter",
                applet_id=record.applet_id,
                service=record.service_slug,
                attempts=record.attempts,
                last_status=record.last_status,
                reason=reason,
            )

    # -- realtime API -------------------------------------------------------------------------

    def _handle_realtime_hint(self, request: HttpRequest):
        self.realtime_hints_received += 1
        service_slug = request.header("service_slug", "")
        honoured = self.config.honours_realtime_for(service_slug)
        if self.metrics is not None:
            self.metrics.counter(
                f"{self._ns}.realtime_hints", service=service_slug, honoured=honoured
            ).inc()
        identities = [
            entry.get("trigger_identity") for entry in (request.body or {}).get("data", [])
        ]
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_realtime_hint",
                service=service_slug,
                honoured=honoured,
                identities=len(identities),
            )
        if honoured:
            breaker = self._breakers.get(service_slug)
            if breaker is not None and breaker.state is BreakerState.OPEN:
                # Fallback: a fast poll against an open breaker is
                # guaranteed to be shed, so park the hint instead.  The
                # check runs on whichever engine *received* the hint —
                # the service's home shard when one exists, or (under
                # round_robin, where no shard owns a service) whichever
                # shard the hint landed on — so the suppression state
                # always lives on the breaker that would do the shedding.
                self.realtime_hints_suppressed += 1
                parked = self._suppressed_hints.setdefault(service_slug, {})
                for identity in identities:
                    parked[identity] = None
                if self.metrics is not None:
                    self.metrics.counter(
                        f"{self._ns}.realtime_hints_suppressed", service=service_slug
                    ).inc()
                if self.trace is not None:
                    self.trace.record(
                        self.now,
                        self._ns,
                        "engine_realtime_hint_suppressed",
                        service=service_slug,
                        identities=len(identities),
                    )
                return {"status": "received"}
            self.realtime_hints_honoured += 1
            if self.delivery is None:
                for identity in identities:
                    self._fast_poll_identity(identity)
            else:
                # Admission control, per identity (each identity is one
                # outstanding fast poll): allow → immediate, defer →
                # hint_defer_delay out, shed → the identity waits for
                # its regular polling cadence.
                for identity in identities:
                    verdict = self.delivery.admit_hint(service_slug)
                    if verdict == HINT_SHED:
                        continue
                    delay = (
                        self.delivery.policy.hint_defer_delay
                        if verdict == HINT_DEFER
                        else 0.0
                    )
                    self._fast_poll_identity(identity, delay)
        return {"status": "received"}

    def _handle_push_notification(self, request: HttpRequest):
        """``POST /ifttt/v1/webhooks/push`` — push-contract ingestion.

        Registered only when :attr:`EngineConfig.push_policy` is set;
        the :class:`~repro.engine.push.PushController` owns batching,
        backpressure, and the breaker-open parking fallback.
        """
        return self.push.ingest(request.header("service_slug", ""), request)

    def _fast_poll_identity(self, identity: str, delay: float = 0.0) -> None:
        start = self._applet_id_start
        for applet_id in self._by_identity.get(identity, ()):
            slot = applet_id - start
            applet = self._slot_applets[slot]
            if applet.enabled and not self._in_flight[slot]:
                if self.delivery is not None:
                    if self._fast_pending[slot]:
                        # Already has a fast poll in flight-to-fire; a
                        # second hint adds nothing but backlog drift.
                        continue
                    self._fast_pending[slot] = 1
                    self.delivery.note_fast_poll_scheduled(
                        applet.trigger.service_slug
                    )
                self._schedule_next_poll(slot, delay)

    def _clear_fast_poll(self, slot: int, applet: Applet) -> None:
        """Release a cancelled applet's outstanding fast-poll slot."""
        if self._fast_pending[slot]:
            self._fast_pending[slot] = 0
            if self.delivery is not None:
                self.delivery.note_fast_poll_done(applet.trigger.service_slug)

    def _resume_suppressed_hints(self, service_slug: str) -> None:
        """Half-open probe succeeded: fire the fast polls parked while the
        service's breaker was open (each distinct identity once)."""
        parked = self._suppressed_hints.pop(service_slug, None)
        if not parked:
            return
        self.realtime_hints_resumed += 1
        if self.metrics is not None:
            self.metrics.counter(
                f"{self._ns}.realtime_hints_resumed", service=service_slug
            ).inc()
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_realtime_hint_resumed",
                service=service_slug,
                identities=len(parked),
            )
        for identity in parked:
            self._fast_poll_identity(identity)

    def __repr__(self) -> str:
        return f"<IftttEngine services={len(self._services)} applets={len(self.applets)}>"
