"""Streaming quantile estimation in O(1) memory.

The §4 latency analyses need p50/p95/p99 over event streams that, at the
production scale the roadmap targets (millions of simulated users), are
far too large to keep in memory and sort.  This module provides two
classic sketches, both dependency-free and deterministic:

* :class:`P2Quantile` — the P² algorithm of Jain & Chlamtac (CACM 1985):
  a single quantile tracked with five markers whose heights are adjusted
  by a piecewise-parabolic interpolation.  Exactly five floats of state
  per quantile, regardless of stream length.
* :class:`ReservoirSample` — Vitter's algorithm R: a fixed-capacity
  uniform sample of the stream, from which *any* quantile can be read.
  Mergeable (unlike P²), at the cost of sampling noise.

Error bounds (empirically verified by ``tests/test_obs_quantiles.py``):
for streams of ≥ 2000 observations from smooth distributions (lognormal,
exponential, uniform) — and for adversarially pre-sorted input — the P²
estimate's *rank error* stays within :data:`P2_RANK_ERROR_BOUND`: the
fraction of samples below the estimate differs from the target quantile
by at most 0.05.  Reservoir estimates with capacity ``k`` carry
O(1/sqrt(k)) rank noise; the tests use the same 0.05 bound at k = 1024.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.simcore.rng import Rng, quantiles as exact_quantiles

#: Documented rank-error bound for the P² sketch (see module docstring).
P2_RANK_ERROR_BOUND = 0.05

#: Quantile points tracked by default (registry histograms use these).
DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)


class P2Quantile:
    """P² (piecewise-parabolic) estimator for one quantile.

    Keeps five markers: the minimum, the maximum, the target quantile,
    and the two mid-quantiles between them.  Each observation shifts the
    markers' desired positions; markers whose actual position drifts off
    by ≥ 1 are moved one step and their heights re-interpolated.

    >>> sketch = P2Quantile(0.5)
    >>> for v in range(1, 1001):
    ...     sketch.observe(float(v))
    >>> abs(sketch.value() - 500.5) < 25
    True
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._count = 0
        # Marker heights, actual positions (1-based), and desired-position
        # increments, in the 5-marker layout of the original paper.
        self._heights: List[float] = []
        self._positions: List[float] = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired: List[float] = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._increments: Tuple[float, ...] = (0.0, q / 2, q, (1 + q) / 2, 1.0)

    @property
    def count(self) -> int:
        """Number of observations absorbed."""
        return self._count

    def observe(self, value: float) -> None:
        """Absorb one observation."""
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Absorb a batch of observations, in order.

        The batch kernel of the estimator: marker heights, positions and
        desired positions live in local variables for the whole batch and
        the three interior-marker adjustments are unrolled.  Every float
        operation is the one the textbook per-sample update performs, in
        the same order, so folding a stream in batches of any size leaves
        bit-identical state.
        """
        count = len(values)
        if not count:
            return
        self._count += count
        heights = self._heights
        start = 0
        while len(heights) < 5:
            # Initialization phase: collect the first five values sorted.
            if start == count:
                return
            heights.append(float(values[start]))
            heights.sort()
            start += 1
        if start == count:
            return
        h0, h1, h2, h3, h4 = heights
        n0, n1, n2, n3, n4 = self._positions
        d0, d1, d2, d3, d4 = self._desired
        _, i1, i2, i3, _ = self._increments
        for index in range(start, count):
            v = float(values[index])
            # Locate the cell and shift the positions of every marker above it.
            if v < h0:
                h0 = v
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif v >= h4:
                h4 = v
            elif v >= h1:
                # ``not >=`` rather than ``<``: a NaN height (``inf - inf``
                # in an interpolation) must stop the scan as it always has.
                if not v >= h2:
                    n2 += 1.0
                    n3 += 1.0
                elif not v >= h3:
                    n3 += 1.0
            else:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            n4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            # Adjust the three interior markers if they drifted, low to high
            # (each adjustment sees its lower neighbour's new height).
            delta = d1 - n1
            if (delta >= 1.0 and n2 - n1 > 1.0) or (delta <= -1.0 and n0 - n1 < -1.0):
                s = 1.0 if delta >= 1.0 else -1.0
                c = h1 + s / (n2 - n0) * (
                    (n1 - n0 + s) * (h2 - h1) / (n2 - n1)
                    + (n2 - n1 - s) * (h1 - h0) / (n1 - n0)
                )
                if h0 < c < h2:
                    h1 = c
                elif s > 0.0:
                    h1 = h1 + s * (h2 - h1) / (n2 - n1)
                else:
                    h1 = h1 + s * (h0 - h1) / (n0 - n1)
                n1 += s
            delta = d2 - n2
            if (delta >= 1.0 and n3 - n2 > 1.0) or (delta <= -1.0 and n1 - n2 < -1.0):
                s = 1.0 if delta >= 1.0 else -1.0
                c = h2 + s / (n3 - n1) * (
                    (n2 - n1 + s) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - s) * (h2 - h1) / (n2 - n1)
                )
                if h1 < c < h3:
                    h2 = c
                elif s > 0.0:
                    h2 = h2 + s * (h3 - h2) / (n3 - n2)
                else:
                    h2 = h2 + s * (h1 - h2) / (n1 - n2)
                n2 += s
            delta = d3 - n3
            if (delta >= 1.0 and n4 - n3 > 1.0) or (delta <= -1.0 and n2 - n3 < -1.0):
                s = 1.0 if delta >= 1.0 else -1.0
                c = h3 + s / (n4 - n2) * (
                    (n3 - n2 + s) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - s) * (h3 - h2) / (n3 - n2)
                )
                if h2 < c < h4:
                    h3 = c
                elif s > 0.0:
                    h3 = h3 + s * (h4 - h3) / (n4 - n3)
                else:
                    h3 = h3 + s * (h2 - h3) / (n2 - n3)
                n3 += s
        heights[:] = (h0, h1, h2, h3, h4)
        self._positions[:] = (n0, n1, n2, n3, n4)
        # The outer desired positions move by 0.0 and 1.0 per sample, so
        # one batched add is exact (positions stay integral below 2**53).
        self._desired[:] = (d0, d1, d2, d3, d4 + (count - start))

    def value(self) -> float:
        """Current estimate of the tracked quantile.

        Falls back to the exact quantile while fewer than five
        observations have arrived; raises ``ValueError`` on an empty
        sketch.
        """
        if not self._heights:
            raise ValueError("no observations yet")
        if self._count < 5:
            return exact_quantiles(self._heights, [self.q])[0]
        return self._heights[2]

    def __repr__(self) -> str:
        return f"<P2Quantile q={self.q} n={self._count}>"


class QuantileSketch:
    """A bank of :class:`P2Quantile` markers sharing one input stream.

    This is what :class:`~repro.obs.metrics.Histogram` embeds: one
    ``observe`` (or ``observe_many`` batch) feeds every tracked quantile,
    so p50/p95/p99 of a million-event latency stream cost 5 floats each.
    """

    def __init__(self, points: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not points:
            raise ValueError("need at least one quantile point")
        self.points = tuple(sorted(points))
        self._sketches = {q: P2Quantile(q) for q in self.points}
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations absorbed."""
        return self._count

    def observe(self, value: float) -> None:
        """Absorb one observation into every tracked quantile."""
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Absorb a batch into every tracked quantile.

        The markers of different quantiles never interact, so running
        each one over the whole batch in turn equals feeding the samples
        one by one.
        """
        self._count += len(values)
        for sketch in self._sketches.values():
            sketch.observe_many(values)

    def quantile(self, q: float) -> float:
        """Estimate for one of the tracked points."""
        try:
            return self._sketches[q].value()
        except KeyError:
            raise KeyError(f"quantile {q} is not tracked (have {self.points})") from None

    def values(self) -> Dict[float, float]:
        """All tracked estimates, or an empty dict before any observation."""
        if self._count == 0:
            return {}
        return {q: sketch.value() for q, sketch in self._sketches.items()}

    def __repr__(self) -> str:
        return f"<QuantileSketch points={self.points} n={self._count}>"


class ReservoirSample:
    """Fixed-capacity uniform sample of a stream (Vitter's algorithm R).

    Deterministic given its seed.  Unlike P², two reservoirs can be
    merged, which makes this the sketch of choice for sharded runs.
    """

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = Rng(seed=seed, name="reservoir")
        self._sample: List[float] = []
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations absorbed (not the sample size)."""
        return self._count

    @property
    def sample(self) -> List[float]:
        """A copy of the current sample."""
        return list(self._sample)

    def observe(self, value: float) -> None:
        """Absorb one observation."""
        self._count += 1
        if len(self._sample) < self.capacity:
            self._sample.append(float(value))
            return
        slot = self._rng.randint(0, self._count - 1)
        if slot < self.capacity:
            self._sample[slot] = float(value)

    def quantile(self, q: float) -> float:
        """Estimate any quantile from the sample."""
        if not self._sample:
            raise ValueError("no observations yet")
        return exact_quantiles(self._sample, [q])[0]

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """A new reservoir approximating the union of both streams.

        Items are drawn from the two samples proportionally to the
        stream counts they stand for, so the merge is unbiased.
        """
        merged = ReservoirSample(capacity=self.capacity, seed=self._rng.seed)
        merged._count = self._count + other.count
        pool: List[Tuple[float, float]] = []
        for source in (self, other):
            if not source._sample:
                continue
            weight = source.count / len(source._sample)
            pool.extend((value, weight) for value in source._sample)
        if not pool:
            return merged
        take = min(merged.capacity, len(pool))
        values = [entry[0] for entry in pool]
        weights = [entry[1] for entry in pool]
        for _ in range(take):
            index = merged._rng.weighted_index(weights)
            merged._sample.append(values[index])
            weights[index] = 0.0
            if not any(weights):
                break
        return merged

    def __repr__(self) -> str:
        return f"<ReservoirSample {len(self._sample)}/{self.capacity} n={self._count}>"


def rank_error(values: Sequence[float], estimate: float, q: float) -> float:
    """|empirical CDF(estimate) - q| — the rank error of a quantile estimate.

    This is the metric the documented :data:`P2_RANK_ERROR_BOUND` is
    stated in; the property tests use it because it is scale-free and
    meaningful for arbitrary distributions (unlike relative value error,
    which blows up near zero or on flat regions of the CDF).
    """
    if not values:
        raise ValueError("cannot compute rank error against an empty sample")
    below = sum(1 for v in values if v <= estimate)
    return abs(below / len(values) - q)
