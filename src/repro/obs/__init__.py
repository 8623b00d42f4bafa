"""Metrics & observability for the reproduction (`repro.obs`).

A production-scale simulation needs more than the forensic
:class:`~repro.simcore.trace.Trace`: hot paths (the engine poll loop,
the HTTP layer, the network, the simulator kernel) update O(1)-memory
counters, gauges, and histograms in a shared
:class:`~repro.obs.metrics.MetricsRegistry`; histograms embed a P²
streaming-quantile sketch so p50/p95/p99 stay cheap at million-event
scale.  Snapshots are JSON-able, mergeable across shards, and exported
by the CLI's ``--metrics`` flag.

See ``docs/OBSERVABILITY.md`` for naming conventions and usage.
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
    WALLCLOCK_METRICS,
    deterministic_snapshot,
    merge_snapshots,
    snapshot_from_json_lines,
    snapshot_to_json_lines,
)
from repro.obs.quantiles import (
    DEFAULT_QUANTILES,
    P2Quantile,
    P2_RANK_ERROR_BOUND,
    QuantileSketch,
    ReservoirSample,
    rank_error,
)
from repro.obs.bridge import bridge_trace, poll_latency_summary

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "P2_RANK_ERROR_BOUND",
    "QuantileSketch",
    "ReservoirSample",
    "ScopedRegistry",
    "WALLCLOCK_METRICS",
    "bridge_trace",
    "deterministic_snapshot",
    "merge_snapshots",
    "poll_latency_summary",
    "rank_error",
    "snapshot_from_json_lines",
    "snapshot_to_json_lines",
]
