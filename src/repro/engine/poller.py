"""Polling-interval policies.

§4's central finding is that T2A latency "is caused by IFTTT's long
polling interval": large (quartiles 58/84/122 s for applets A1-A4), highly
variable, with an extreme tail (15 minutes), and occasionally inflated by
platform load (Figure 6's 14-minute gap between action clusters).

:class:`ProductionPollingPolicy` reproduces that behaviour: lognormal
intervals around a ~90 s median plus a small probability of a multi-x
"engine busy" inflation.  :class:`FixedPollingPolicy` is experiment E3's
replacement engine (poll every second).  :class:`AdaptivePollingPolicy`
implements the §6 recommendation of predicting trigger activity to poll
smartly.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from repro.simcore.rng import Rng


class PollingPolicy(ABC):
    """Decides how long the engine waits before the next poll of a trigger."""

    # Bound-histogram cache for :meth:`sample_interval`.  Class-level
    # defaults keep subclass ``__init__``s (which do not call super())
    # working; the first recorded sample promotes them to instance
    # attributes.  ``_bound_sig`` is ``(registry, metric_name, labels)``
    # — all three participate in the hit check, so a policy clone reused
    # under a different registry or shard namespace
    # (``engine.shard<i>.poll_interval_seconds``) transparently rebinds
    # instead of writing into the wrong histogram
    # (``tests/test_scheduler_equivalence.py`` pins this).
    _bound_sig = None
    _bound_hist = None

    #: Whether the policy learns per applet (``observe_events`` feedback,
    #: counters, any state a draw changes).  The engine gives a learning
    #: policy one clone per applet; a policy that learns nothing is
    #: cloned once per (engine, trigger service) and shared by that
    #: service's applets.  Subclasses default to learning, the safe side.
    learns = True

    @abstractmethod
    def next_interval(self, rng: Rng) -> float:
        """Seconds until the next poll."""

    def sample_interval(
        self,
        rng: Rng,
        metrics=None,
        metric_name: str = "engine.poll_interval_seconds",
        **labels,
    ) -> float:
        """Draw the next interval, recording it when a registry is given.

        The engine calls this instead of :meth:`next_interval` so the
        distribution §4 blames for T2A latency (the polling interval) is
        captured as a first-class histogram
        (``engine.poll_interval_seconds``, or the engine's shard-scoped
        name) rather than re-derived from trace scans.

        This runs once per poll of every applet in the fleet, so the
        histogram handle is cached on the policy after the first call:
        the registry's get-or-create path (label dict copy + sorted
        label tuple) is paid once per (policy, registry, metric, labels)
        rather than once per poll.
        """
        interval = self.next_interval(rng)
        if metrics is not None:
            sig = self._bound_sig
            if (
                sig is None
                or sig[0] is not metrics
                or sig[1] != metric_name
                or sig[2] != labels
            ):
                self._bound_hist = metrics.histogram(
                    metric_name, policy=type(self).__name__, **labels
                )
                self._bound_sig = (metrics, metric_name, labels)
            self._bound_hist.observe(interval)
        return interval

    def observe_events(self, count: int) -> None:
        """Feedback hook: how many new events the last poll returned."""

    def clone(self) -> "PollingPolicy":
        """A fresh copy — each engine shard, and each applet of a learning
        policy (:attr:`learns`), gets its own.

        The base implementation shallow-copies the instance.  Returning
        ``self`` here would silently share mutable policy state (EWMA
        activity, counters) across every applet of every engine that
        cloned from the same prototype — exactly the cross-shard leak
        ``tests/test_sharding.py`` guards against.  Stateless subclasses
        pay one cheap ``copy.copy``; stateful ones should still override
        to reset learned state.
        """
        return copy.copy(self)


class ProductionPollingPolicy(PollingPolicy):
    """The measured IFTTT behaviour: long, variable, occasionally inflated.

    Parameters were calibrated so that simulated T2A latency for
    poll-bound applets matches the paper's quartiles (58/84/122 s) and
    tail (~15 min); see ``tests/test_calibration.py``.
    """

    learns = False

    def __init__(
        self,
        median: float = 145.0,
        sigma: float = 0.30,
        inflation_prob: float = 0.015,
        inflation_min: float = 3.0,
        inflation_max: float = 6.0,
        minimum: float = 50.0,
    ) -> None:
        if median <= 0 or minimum < 0:
            raise ValueError("median must be positive and minimum non-negative")
        if not 0 <= inflation_prob <= 1:
            raise ValueError(f"inflation_prob must be in [0, 1], got {inflation_prob}")
        self.median = median
        self.sigma = sigma
        self.inflation_prob = inflation_prob
        self.inflation_min = inflation_min
        self.inflation_max = inflation_max
        self.minimum = minimum

    def next_interval(self, rng: Rng) -> float:
        interval = rng.lognormal_median(self.median, self.sigma)
        if rng.bernoulli(self.inflation_prob):
            interval *= rng.uniform(self.inflation_min, self.inflation_max)
        return max(self.minimum, interval)

    def clone(self) -> "ProductionPollingPolicy":
        return ProductionPollingPolicy(
            median=self.median,
            sigma=self.sigma,
            inflation_prob=self.inflation_prob,
            inflation_min=self.inflation_min,
            inflation_max=self.inflation_max,
            minimum=self.minimum,
        )

    def __repr__(self) -> str:
        return f"ProductionPollingPolicy(median={self.median}, sigma={self.sigma})"


class FixedPollingPolicy(PollingPolicy):
    """Poll at a fixed interval — E3's 1 s frequent-polling engine."""

    learns = False

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval

    def next_interval(self, rng: Rng) -> float:
        return self.interval

    def clone(self) -> "FixedPollingPolicy":
        return FixedPollingPolicy(self.interval)

    def __repr__(self) -> str:
        return f"FixedPollingPolicy({self.interval})"


class AdaptivePollingPolicy(PollingPolicy):
    """§6's "poll smartly" proposal: back off when idle, speed up when busy.

    Maintains an exponentially-weighted activity estimate from the
    observed per-poll event counts; the interval interpolates between
    ``fast`` (active trigger) and ``slow`` (idle trigger).  The ablation
    bench shows this recovers most of E3's latency win at a fraction of
    its poll volume.
    """

    def __init__(
        self,
        fast: float = 5.0,
        slow: float = 300.0,
        ewma_alpha: float = 0.3,
        jitter: float = 0.1,
    ) -> None:
        if not 0 < fast <= slow:
            raise ValueError(f"need 0 < fast <= slow, got {fast}, {slow}")
        if not 0 < ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.fast = fast
        self.slow = slow
        self.ewma_alpha = ewma_alpha
        self.jitter = jitter
        self._activity = 0.0

    @property
    def activity(self) -> float:
        """Current EWMA of events-per-poll (clamped to [0, 1] for mixing)."""
        return self._activity

    def observe_events(self, count: int) -> None:
        signal = 1.0 if count > 0 else 0.0
        self._activity = self.ewma_alpha * signal + (1 - self.ewma_alpha) * self._activity

    def next_interval(self, rng: Rng) -> float:
        weight = min(1.0, self._activity)
        base = weight * self.fast + (1 - weight) * self.slow
        return max(self.fast * 0.5, base * (1 + rng.uniform(-self.jitter, self.jitter)))

    def clone(self) -> "AdaptivePollingPolicy":
        return AdaptivePollingPolicy(
            fast=self.fast, slow=self.slow, ewma_alpha=self.ewma_alpha, jitter=self.jitter
        )

    def __repr__(self) -> str:
        return f"AdaptivePollingPolicy(fast={self.fast}, slow={self.slow})"
