"""The IFTTT engine (Figure 1, ❼) — the paper's system under test.

This package implements the centralized trigger-action engine whose
behaviour §4 measures:

* :mod:`repro.engine.applet` — applets: a trigger reference, an action
  reference, field parameters, and install metadata.
* :mod:`repro.engine.engine` — the engine itself: service publication,
  applet installation, the batched poll loop, event dedup, action
  dispatch with ingredient templating, and the realtime-hint endpoint.
* :mod:`repro.engine.poller` — polling-interval policies.  The production
  policy reproduces the paper's long, highly variable polling delay
  (T2A quartiles ≈ 58/84/122 s, tail to ~15 min); a 1 s fixed policy
  reproduces experiment E3.
* :mod:`repro.engine.oauth` — the OAuth2 authorization-code flow used to
  connect user accounts to services, with tokens cached at the engine.
* :mod:`repro.engine.permissions` — IFTTT's coarse service-level
  permission grants and the finer-grained alternative §6 recommends.
* :mod:`repro.engine.loops` — static (channel-graph) and runtime loop
  detection; disabled by default, matching the measured IFTTT behaviour
  ("no syntax check is performed").
* :mod:`repro.engine.local` — a home-LAN local engine and a hybrid
  scheduler, implementing §6's distributed-applet-execution proposal.
* :mod:`repro.engine.resilience` — retry policies, per-service circuit
  breakers, and the action dead-letter sink that keep the engine honest
  under the fault plans of :mod:`repro.faults`.
* :mod:`repro.engine.delivery` — health-aware adaptive delivery: the
  per-service :class:`ServiceHealth` EWMA tracker, the
  :class:`AdaptiveDeliveryPolicy` wrapper that stretches any polling
  policy under brownout and provably restores the §4 interval
  distribution after heal, and the :class:`DeliveryController` that
  adds watermarked admission control and the 4-level degradation
  ladder (``docs/ROBUSTNESS.md``, "Adaptive delivery & degradation
  ladder").
* :mod:`repro.engine.push` — push-first delivery: the opt-in per-service
  push contract (payload-carrying ``POST /ifttt/v1/webhooks/push``
  notifications), engine-side ingestion batching via coalescing drains,
  and watermarked backpressure that degrades a service push→hint→poll
  (``docs/DELIVERY.md``).
* :mod:`repro.engine.replay` — the :class:`ReplayController` that drains
  a healed service's dead letters back through delivery, coalescing
  same-service actions into batched requests (``docs/ROBUSTNESS.md``,
  "Replay & batching").
* :mod:`repro.engine.sharding` — the :class:`ShardedEngine` coordinator
  that partitions applets across N engines with per-shard breakers,
  metrics scopes, and a mergeable fleet snapshot (``docs/SHARDING.md``).
* :mod:`repro.engine.scheduler` — the :class:`HeapPollScheduler` that
  dispatches every applet poll of an engine: one wake event per engine,
  batch pops, lazy cancellation.  Its dispatch contract is pinned by
  golden hashes (``docs/PERFORMANCE.md``).
"""

from repro.engine.applet import Applet, TriggerRef, ActionRef, AppletState, QueryRef
from repro.engine.config import EngineConfig, SHARD_STRATEGIES
from repro.engine.poller import (
    PollingPolicy,
    ProductionPollingPolicy,
    FixedPollingPolicy,
    AdaptivePollingPolicy,
)
from repro.engine.delivery import (
    AdaptiveDeliveryPolicy,
    DEGRADATION_LEVEL_NAMES,
    DeliveryController,
    DeliveryPolicy,
    ServiceHealth,
    sampled_interval_quartiles,
)
from repro.engine.push import (
    DELIVERY_MODES,
    PUSH_RUNG_NAMES,
    PushController,
    PushDeliveryPolicy,
    PushPolicy,
    PushServiceState,
)
from repro.engine.oauth import OAuthAuthority, OAuthGrant
from repro.engine.engine import (
    AppletIdRangeError,
    IftttEngine,
    ServiceRegistration,
)
from repro.engine.permissions import (
    Scope,
    ServicePermissionModel,
    PerEndpointPermissionModel,
    excess_privilege,
)
from repro.engine.loops import (
    StaticLoopAnalyzer,
    RuntimeLoopDetector,
    LoopFinding,
)
from repro.engine.local import LocalEngine, HybridScheduler
from repro.engine.replay import ReplayController
from repro.engine.resilience import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    DeadLetter,
    PendingAction,
    ReplayPolicy,
    RetryPolicy,
)
from repro.engine.scheduler import HeapPollScheduler
from repro.engine.sharding import (
    ShardedEngine,
    merged_fleet_snapshot,
    shard_snapshot,
    stable_service_hash,
)
from repro.engine.filters import (
    FilterSyntaxError,
    FilterEvalError,
    parse as parse_filter,
    evaluate as evaluate_filter,
)

__all__ = [
    "Applet",
    "TriggerRef",
    "ActionRef",
    "AppletState",
    "QueryRef",
    "FilterSyntaxError",
    "FilterEvalError",
    "parse_filter",
    "evaluate_filter",
    "EngineConfig",
    "PollingPolicy",
    "ProductionPollingPolicy",
    "FixedPollingPolicy",
    "AdaptivePollingPolicy",
    "OAuthAuthority",
    "OAuthGrant",
    "AppletIdRangeError",
    "IftttEngine",
    "ServiceRegistration",
    "Scope",
    "ServicePermissionModel",
    "PerEndpointPermissionModel",
    "excess_privilege",
    "StaticLoopAnalyzer",
    "RuntimeLoopDetector",
    "LoopFinding",
    "LocalEngine",
    "HybridScheduler",
    "RetryPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "PendingAction",
    "DeadLetter",
    "ReplayPolicy",
    "ReplayController",
    "DeliveryPolicy",
    "DeliveryController",
    "ServiceHealth",
    "AdaptiveDeliveryPolicy",
    "DEGRADATION_LEVEL_NAMES",
    "sampled_interval_quartiles",
    "DELIVERY_MODES",
    "PUSH_RUNG_NAMES",
    "PushPolicy",
    "PushController",
    "PushDeliveryPolicy",
    "PushServiceState",
    "HeapPollScheduler",
    "SHARD_STRATEGIES",
    "ShardedEngine",
    "stable_service_hash",
    "shard_snapshot",
    "merged_fleet_snapshot",
]
