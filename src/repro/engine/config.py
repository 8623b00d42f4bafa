"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.engine.delivery import DeliveryPolicy
from repro.engine.poller import PollingPolicy, ProductionPollingPolicy
from repro.engine.push import PushPolicy
from repro.engine.resilience import BreakerPolicy, ReplayPolicy, RetryPolicy

#: Services whose realtime hints production IFTTT is observed to honour.
#: §4: "it is likely that IFTTT ... processes the real-time API hints for
#: some services (such as Alexa) with timing requirements ... When we use
#: our own service to host Alexa, its latency becomes large."
DEFAULT_REALTIME_ALLOWLIST: FrozenSet[str] = frozenset({"amazon_alexa", "google_assistant"})

#: Applet-to-shard assignment strategies understood by
#: :class:`~repro.engine.sharding.ShardedEngine` (see ``docs/SHARDING.md``).
SHARD_STRATEGIES: tuple = ("service_hash", "round_robin", "popularity_balanced")


@dataclass
class EngineConfig:
    """Tunable engine behaviour.

    The defaults model production IFTTT as the paper measured it; the E3
    and §6-ablation experiments override individual knobs.

    Attributes
    ----------
    poll_policy:
        Prototype polling policy; each installed applet receives its own
        :meth:`~repro.engine.poller.PollingPolicy.clone`.
    batch_limit:
        The ``limit`` sent in each poll — k in §4's batching discussion
        (50 by default).
    realtime_allowlist:
        Service slugs whose realtime hints cause an immediate poll.
        ``None`` means *honour every service's hints* (the push world §6
        advocates); an empty set ignores all hints.
    initial_poll_delay, initial_poll_jitter:
        Delay between applet installation and the registration poll, plus
        a uniform random extra of up to ``initial_poll_jitter`` seconds —
        staggering large fleets so their polling phases decorrelate.
    action_timeout, poll_timeout:
        HTTP timeouts for engine-originated requests.
    dedupe_window:
        How many recent event ids the engine remembers per trigger
        identity for deduplication.
    static_loop_check:
        Reject applet installs that would create a detectable loop.
        Default False — the paper confirms production IFTTT performs no
        such "syntax check".
    runtime_loop_detection:
        Attach a :class:`~repro.engine.loops.RuntimeLoopDetector` and
        disable applets that trip it.  Default False (ditto).
    runtime_loop_threshold, runtime_loop_window:
        The runtime detector's rate limit: more than ``threshold``
        executions of one applet within ``window`` seconds flags a loop.
    retry_policy:
        Backoff schedule for failed polls and action deliveries
        (``None`` disables retries entirely: failed polls wait for the
        next regular interval, failed actions dead-letter immediately).
        Jitter is drawn from the engine's seeded RNG, so retry timing is
        reproducible.  Only consulted on failures — healthy runs consume
        no extra randomness and behave identically with or without it.
    breaker_policy:
        Per-service circuit-breaker tunables (``None`` disables
        breakers).  An open breaker sheds polls/actions for its service,
        modelling the adaptive slow-down of polling for failing
        services; shed polls still count toward per-applet poll
        attempts.  See ``docs/ROBUSTNESS.md``.
    replay_policy:
        Dead-letter replay tunables (``None``, the default, disables
        replay: dead letters stay sealed forever — the pre-replay
        behaviour).  When set, a service's dead letters are drained back
        into pending actions on heal (breaker close) or via
        :meth:`~repro.engine.engine.IftttEngine.replay_dead_letters`,
        re-dispatched in batches of
        :attr:`~repro.engine.resilience.ReplayPolicy.batch_limit`, and
        the conservation invariant extends to ``dispatched == delivered
        + in_retry + dead_lettered + in_replay``.  See
        ``docs/ROBUSTNESS.md`` ("Replay & batching").
    num_shards:
        How many :class:`~repro.engine.engine.IftttEngine` instances a
        :class:`~repro.engine.sharding.ShardedEngine` built from this
        config partitions the applet corpus across.  A plain engine
        ignores the knob; 1 (the default) makes the sharded coordinator
        behaviourally equivalent to a single engine.
    shard_strategy:
        How applets map to shards — one of :data:`SHARD_STRATEGIES`:
        ``service_hash`` (seed-stable hash of the trigger service, so
        all polls for a service land on one shard and batching still
        works), ``round_robin`` (per-applet, ignores service affinity),
        or ``popularity_balanced`` (first sighting of a trigger service
        sticks it to the least-loaded shard — tames heavy-tailed applet
        popularity).  See ``docs/SHARDING.md``.
    delivery_policy:
        Health-aware adaptive delivery tunables (``None``, the default,
        disables adaptation — the engine behaves exactly as before, no
        new metric families appear, and no extra randomness is
        consumed, so the determinism gates stay byte-identical).  When
        set, the engine builds a
        :class:`~repro.engine.delivery.DeliveryController`: per-service
        :class:`~repro.engine.delivery.ServiceHealth` EWMA trackers
        stretch poll intervals and retry backoffs under brownout,
        watermarked admission bounds the realtime-hint and action-retry
        queues, replay drains respect the same headroom, and the
        4-level degradation ladder is exported per service as the
        ``{ns}.degradation_level`` gauge.  See ``docs/ROBUSTNESS.md``
        ("Adaptive delivery & degradation ladder").
    push_policy:
        Push-first delivery tunables (``None``, the default, disables
        push: services keep polling/hint semantics, no push webhook
        route is registered, and behaviour is byte-identical to the
        pre-push engine).  When set, the engine builds a
        :class:`~repro.engine.push.PushController`, registers
        ``POST /ifttt/v1/webhooks/push``, and accepts the push contract
        of any service published with ``push=True``: the service then
        POSTs event payloads directly, the controller coalesces them
        into batched drains (``batch_window``/``max_batch``), and the
        watermarked backlog degrades the service push→hint→poll.
        Applets on contract services poll only at the policy's
        ``safety_net_interval``.  See ``docs/DELIVERY.md``.
    """

    poll_policy: PollingPolicy = field(default_factory=ProductionPollingPolicy)
    batch_limit: int = 50
    realtime_allowlist: Optional[FrozenSet[str]] = DEFAULT_REALTIME_ALLOWLIST
    initial_poll_delay: float = 1.0
    initial_poll_jitter: float = 0.0
    action_timeout: float = 30.0
    poll_timeout: float = 30.0
    dedupe_window: int = 2000
    static_loop_check: bool = False
    runtime_loop_detection: bool = False
    runtime_loop_threshold: int = 10
    runtime_loop_window: float = 60.0
    retry_policy: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    breaker_policy: Optional[BreakerPolicy] = field(default_factory=BreakerPolicy)
    replay_policy: Optional[ReplayPolicy] = None
    delivery_policy: Optional[DeliveryPolicy] = None
    push_policy: Optional[PushPolicy] = None
    num_shards: int = 1
    shard_strategy: str = "service_hash"

    def __post_init__(self) -> None:
        if self.batch_limit <= 0:
            raise ValueError(f"batch_limit must be positive, got {self.batch_limit}")
        if self.dedupe_window <= 0:
            raise ValueError(f"dedupe_window must be positive, got {self.dedupe_window}")
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.shard_strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard_strategy {self.shard_strategy!r}; "
                f"expected one of {SHARD_STRATEGIES}"
            )

    def honours_realtime_for(self, service_slug: str) -> bool:
        """Whether a realtime hint from this service triggers an immediate poll."""
        if self.realtime_allowlist is None:
            return True
        return service_slug in self.realtime_allowlist
