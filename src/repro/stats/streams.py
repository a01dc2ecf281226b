"""One-pass (streaming) statistics accumulators.

A statistics collector in the forwarding path cannot store packets and
cannot take two passes; everything it reports must come from O(1)
state updated per packet.  This module provides the accumulators such
a collector maintains:

* :class:`RunningStats` — count/mean/variance/skewness/kurtosis via
  Welford's online moment recurrences, plus min/max;
* :class:`P2Quantile` — the Jain/Chlamtac P² algorithm: a quantile
  estimate from five markers, no sample storage;
* :class:`RunningHistogram` — fixed-edge counts (the streaming face of
  :mod:`repro.stats.histogram`).

Each accumulator supports ``update`` (one value), ``update_many``
(vectorized convenience), and ``merge`` where it is exact.
"""

import math
from typing import Optional, Sequence

import numpy as np

from repro.stats.histogram import _edge_counts, _validated_edges


class RunningStats:
    """Welford-style online central moments up to order four.

    The recurrences are the standard numerically stable one-pass
    updates; results agree with :func:`repro.stats.describe.describe`
    to floating-point accuracy regardless of data magnitude.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._m3 = 0.0
        self._m4 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def update(self, value: float) -> None:
        """Fold one observation into the state."""
        value = float(value)
        n1 = self.count
        self.count += 1
        n = self.count
        delta = value - self._mean
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self._mean += delta_n
        self._m4 += (
            term1 * delta_n2 * (n * n - 3 * n + 3)
            + 6 * delta_n2 * self._m2
            - 4 * delta_n * self._m3
        )
        self._m3 += term1 * delta_n * (n - 2) - 3 * delta_n * self._m2
        self._m2 += term1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def update_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations, one at a time."""
        for value in np.asarray(values, dtype=np.float64):
            self.update(float(value))

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Exact combination of two disjoint streams' states."""
        if other.count == 0:
            return self._copy()
        if self.count == 0:
            return other._copy()
        combined = RunningStats()
        na, nb = self.count, other.count
        n = na + nb
        delta = other._mean - self._mean
        delta2 = delta * delta
        combined.count = n
        combined._mean = self._mean + delta * nb / n
        combined._m2 = self._m2 + other._m2 + delta2 * na * nb / n
        combined._m3 = (
            self._m3
            + other._m3
            + delta**3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other._m2 - nb * self._m2) / n
        )
        combined._m4 = (
            self._m4
            + other._m4
            + delta**4 * na * nb * (na * na - na * nb + nb * nb) / (n**3)
            + 6.0
            * delta2
            * (na * na * other._m2 + nb * nb * self._m2)
            / (n * n)
            + 4.0 * delta * (na * other._m3 - nb * self._m3) / n
        )
        combined._min = min(self._min, other._min)
        combined._max = max(self._max, other._max)
        return combined

    def _copy(self) -> "RunningStats":
        copy = RunningStats()
        copy.count = self.count
        copy._mean = self._mean
        copy._m2 = self._m2
        copy._m3 = self._m3
        copy._m4 = self._m4
        copy._min = self._min
        copy._max = self._max
        return copy

    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        """Arithmetic mean of the stream so far."""
        if self.count == 0:
            raise ValueError("no observations yet")
        return self._mean

    @property
    def variance(self) -> float:
        """Population (divide-by-N) variance."""
        if self.count == 0:
            raise ValueError("no observations yet")
        return self._m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def skewness(self) -> float:
        """Standardized third moment (0 for a constant stream)."""
        if self.count == 0:
            raise ValueError("no observations yet")
        if self._m2 == 0:
            return 0.0
        return math.sqrt(self.count) * self._m3 / self._m2**1.5

    @property
    def kurtosis(self) -> float:
        """Non-excess standardized fourth moment (0 when constant)."""
        if self.count == 0:
            raise ValueError("no observations yet")
        if self._m2 == 0:
            return 0.0
        return self.count * self._m4 / (self._m2 * self._m2)

    @property
    def minimum(self) -> float:
        """Smallest observation."""
        if self.count == 0:
            raise ValueError("no observations yet")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation."""
        if self.count == 0:
            raise ValueError("no observations yet")
        return self._max


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Tracks one quantile with five markers (positions + heights),
    adjusting marker heights by piecewise-parabolic interpolation.  No
    observations are stored; memory is constant.  Accuracy is ample
    for the "which bin edge should I use" questions a monitor answers.
    """

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1), got %r" % (quantile,))
        self.quantile = quantile
        self._initial: list = []
        self._heights: Optional[np.ndarray] = None
        self._positions: Optional[np.ndarray] = None
        self._desired: Optional[np.ndarray] = None
        p = quantile
        self._increments = np.array([0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0])
        self.count = 0

    def update(self, value: float) -> None:
        """Fold one observation into the marker state."""
        value = float(value)
        self.count += 1
        if self._heights is None:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = np.array(self._initial, dtype=np.float64)
                self._positions = np.arange(1.0, 6.0)
                p = self.quantile
                self._desired = np.array(
                    [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
                )
            return

        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = int(np.searchsorted(heights, value, side="right")) - 1
            cell = min(max(cell, 0), 3)
        positions[cell + 1 :] += 1.0
        self._desired += self._increments

        for i in (1, 2, 3):
            d = self._desired[i] - positions[i]
            if (d >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                d <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, q = self._positions, self._heights
        return q[i] + step / (h[i + 1] - h[i - 1]) * (
            (h[i] - h[i - 1] + step)
            * (q[i + 1] - q[i])
            / (h[i + 1] - h[i])
            + (h[i + 1] - h[i] - step) * (q[i] - q[i - 1]) / (h[i] - h[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, q = self._positions, self._heights
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (h[j] - h[i])

    def update_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations, one at a time."""
        for value in np.asarray(values, dtype=np.float64):
            self.update(float(value))

    @property
    def value(self) -> float:
        """The current quantile estimate."""
        if self.count == 0:
            raise ValueError("no observations yet")
        if self._heights is None:
            data = sorted(self._initial)
            index = min(
                int(math.ceil(self.quantile * len(data))) - 1, len(data) - 1
            )
            return data[max(index, 0)]
        return float(self._heights[2])


class RunningHistogram:
    """Fixed-edge streaming histogram (see :mod:`repro.stats.histogram`).

    Bin ``i`` holds values in ``[edges[i-1], edges[i])`` with open
    ends, matching the batch convention exactly.
    """

    def __init__(self, edges: Sequence[float]) -> None:
        self.edges = _validated_edges(edges)
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)

    def update(self, value: float) -> None:
        """Count one observation (the per-packet reference binning)."""
        index = int(np.searchsorted(self.edges, value, side="right"))
        self.counts[index] += 1

    def update_many(self, values: Sequence[float]) -> None:
        """Count a batch with the batch kernel, over the edges validated at build."""
        self.counts += _edge_counts(values, self.edges)

    def merge(self, other: "RunningHistogram") -> "RunningHistogram":
        """Exact combination of two streams' histograms."""
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge histograms with different edges")
        merged = RunningHistogram(self.edges)
        merged.counts = self.counts + other.counts
        return merged

    @property
    def total(self) -> int:
        """Observations counted so far."""
        return int(self.counts.sum())
