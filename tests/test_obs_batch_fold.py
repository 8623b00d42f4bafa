"""Batch-folded histograms equal the per-sample textbook P² update, bit for bit.

:meth:`repro.obs.quantiles.P2Quantile.observe_many` and the pending-list
fold of :class:`repro.obs.metrics.Histogram` promise *the same float
operations in the same order* as absorbing each sample as it arrives.
The oracles below keep that per-sample update (Jain & Chlamtac's marker
loop with its parabolic/linear helpers) as test-only code, and the
properties compare the two paths exactly — by ``repr``, so NaN heights
from ``inf - inf`` and signed zeros must match too — on random, sorted,
reverse-sorted, tied, negative and ±inf streams, with reads interleaved
at random points so flush-on-read is covered.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import FOLD_BATCH, Histogram, MetricsRegistry
from repro.obs.quantiles import DEFAULT_QUANTILES, P2Quantile, QuantileSketch

# -- test-only oracles: the per-sample update ------------------------------------


class OracleP2(P2Quantile):
    """P² with the textbook one-sample-at-a-time marker update."""

    def observe(self, value):
        self._count += 1
        if len(self._heights) < 5:
            self._heights.append(float(value))
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = float(value)
            cell = 0
        elif value >= heights[4]:
            heights[4] = float(value)
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i, step):
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i, step):
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])


def oracle_sketch(points=DEFAULT_QUANTILES):
    """A QuantileSketch whose markers update one sample at a time."""
    sketch = QuantileSketch(points)
    sketch._sketches = {q: OracleP2(q) for q in sketch.points}
    return sketch


def oracle_sketch_observe(sketch, value):
    sketch._count += 1
    for marker in sketch._sketches.values():
        marker.observe(value)


class OracleHistogram(Histogram):
    """A Histogram that folds every sample on arrival (no pending list)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sketch = oracle_sketch(self._sketch.points)

    def observe(self, value):
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self._bucket_counts[lo] += 1
        self._count += 1
        self._total += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        oracle_sketch_observe(self._sketch, value)


def p2_state(sketch):
    return repr((sketch._count, sketch._heights, sketch._positions, sketch._desired))


def exact(value):
    """A comparison key that is equal iff the two values are bit-identical floats."""
    return json.dumps(value, sort_keys=True)


# -- input streams ------------------------------------------------------------------

#: Lengths at the edges of the initialization phase and the fold batch.
EDGE_LENGTHS = (0, 1, 4, 5, 6, FOLD_BATCH - 1, FOLD_BATCH, FOLD_BATCH + 1, 2 * FOLD_BATCH + 1)

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
KINDS = ("random", "sorted", "reverse", "tied", "negative", "infinite")


@st.composite
def streams(draw, max_size=2 * FOLD_BATCH + 2):
    kind = draw(st.sampled_from(KINDS))
    if draw(st.booleans()):
        size = draw(st.sampled_from(EDGE_LENGTHS))
    else:
        size = draw(st.integers(min_value=0, max_value=max_size))
    if kind == "tied":
        element = st.sampled_from((0.0, -0.0, 1.0, 2.5, 2.5, 7.0))
    elif kind == "negative":
        element = st.floats(min_value=-1e9, max_value=0.0, allow_nan=False)
    elif kind == "infinite":
        element = st.one_of(finite, st.sampled_from((math.inf, -math.inf)))
    else:
        element = finite
    values = draw(st.lists(element, min_size=size, max_size=size))
    if kind == "sorted":
        values.sort()
    elif kind == "reverse":
        values.sort(reverse=True)
    return values


@st.composite
def cut_points(draw, length):
    """Sorted split points of a stream of ``length`` (batch boundaries / reads)."""
    cuts = draw(st.lists(st.integers(min_value=0, max_value=length), max_size=8))
    return sorted(set(cuts))


def chunks(values, cuts):
    start = 0
    for cut in cuts + [len(values)]:
        yield values[start:cut]
        start = cut


# -- properties ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data(), streams(), st.sampled_from((0.05, 0.25, 0.5, 0.9, 0.99)))
def test_p2_batch_state_equals_per_sample(data, values, q):
    cuts = data.draw(cut_points(len(values)))
    batched, oracle = P2Quantile(q), OracleP2(q)
    for chunk in chunks(values, cuts):
        batched.observe_many(chunk)
        for value in chunk:
            oracle.observe(value)
        assert p2_state(batched) == p2_state(oracle)
        if oracle.count:
            assert repr(batched.value()) == repr(oracle.value())


@settings(max_examples=60, deadline=None)
@given(streams(), st.sampled_from((0.5, 0.95)))
def test_p2_single_observe_equals_per_sample(values, q):
    single, oracle = P2Quantile(q), OracleP2(q)
    for value in values:
        single.observe(value)
        oracle.observe(value)
    assert p2_state(single) == p2_state(oracle)


@settings(max_examples=100, deadline=None)
@given(st.data(), streams())
def test_sketch_values_equal_per_sample(data, values):
    cuts = data.draw(cut_points(len(values)))
    batched, oracle = QuantileSketch(), oracle_sketch()
    for chunk in chunks(values, cuts):
        batched.observe_many(chunk)
        for value in chunk:
            oracle_sketch_observe(oracle, value)
        assert batched.count == oracle.count
        assert exact(batched.values()) == exact(oracle.values())


READS = ("count", "total", "min", "max", "bucket_counts", "sketch", "mean", "quantile",
         "snapshot")


def read(histogram, what):
    if what == "sketch":
        return histogram.sketch.values()
    if what == "mean":
        return histogram.mean()
    if what == "quantile":
        return histogram.quantile(0.95) if histogram.count else None
    if what == "snapshot":
        return histogram.snapshot()
    return getattr(histogram, what)


@settings(max_examples=120, deadline=None)
@given(st.data(), streams(max_size=3 * FOLD_BATCH), st.booleans())
def test_histogram_snapshot_equals_per_sample(data, values, count_buckets):
    bounds = (0, 1, 2, 5, 10, 20, 50, 100, 250, 500) if count_buckets else (
        0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    reads = data.draw(cut_points(len(values)))
    batched = Histogram("h", {}, bounds=bounds)
    oracle = OracleHistogram("h", {}, bounds=bounds)
    for chunk in chunks(values, reads):
        for value in chunk:
            batched.observe(value)
            oracle.observe(value)
            assert len(batched._pending) < FOLD_BATCH
        what = data.draw(st.sampled_from(READS))
        assert exact(read(batched, what)) == exact(read(oracle, what))
    assert exact(batched.snapshot()) == exact(oracle.snapshot())


def test_histogram_rejects_nan_and_keeps_its_state():
    histogram = MetricsRegistry().histogram("latency_seconds")
    histogram.observe(0.5)
    with pytest.raises(ValueError, match="NaN"):
        histogram.observe(float("nan"))
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 1
    assert snapshot["sum"] == 0.5
    assert all(not math.isnan(v) for v in snapshot["quantiles"].values())


@pytest.mark.parametrize("n", EDGE_LENGTHS)
def test_pending_samples_stay_below_the_batch(n):
    histogram = Histogram("h", {})
    for value in range(n):
        histogram.observe(float(value))
        assert len(histogram._pending) < FOLD_BATCH
    assert histogram.count == n
    assert histogram._pending == []
