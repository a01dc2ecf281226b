"""Windowed fidelity of an ongoing sample (operational monitoring).

An always-on monitor samples continuously; the operator's question is
temporal: *is this hour's sample still representative of this hour's
traffic?*  :func:`fidelity_series` slides a window across the trace
and scores, within each window, the selected packets against that
window's own population — producing a φ time series whose excursions
flag periods where the sampling design under-covered the traffic
(e.g. a burst finer than the sampling fraction, or a timer design
during a bursty hour).
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.evaluation.targets import CharacterizationTarget
from repro.core.metrics.registry import evaluate_all
from repro.core.sampling.base import SamplingResult
from repro.trace.trace import Trace


@dataclass(frozen=True)
class FidelityPoint:
    """One window's fidelity score."""

    start_us: int
    end_us: int
    population: int
    sampled: int
    phi: Optional[float]

    @property
    def usable(self) -> bool:
        """Whether the window had enough data to score."""
        return self.phi is not None


def fidelity_series(
    trace: Trace,
    result: SamplingResult,
    target: CharacterizationTarget,
    window_us: int,
    min_sampled: int = 10,
) -> List[FidelityPoint]:
    """Per-window phi of the sample against each window's population.

    Each window is one :func:`~repro.core.metrics.evaluate_all` call, as
    in :class:`~repro.obs.live.QualityMonitor`, so their phi are equal.

    Parameters
    ----------
    trace:
        The parent population.
    result:
        A sampling result over the whole trace.
    target:
        The characterization target to score.
    window_us:
        Window length; windows tile the trace without overlap,
        anchored at the first packet.
    min_sampled:
        Windows with fewer selected attribute values than this score
        ``phi=None`` (flagged unusable rather than wildly noisy).
    """
    if window_us <= 0:
        raise ValueError("window length must be positive")
    if min_sampled < 1:
        raise ValueError("min_sampled must be at least 1")
    n = len(trace)
    if n == 0:
        return []
    origin = int(trace.timestamps_us[0])
    horizon = int(trace.timestamps_us[-1])
    values = target.attribute_values(trace)
    selected_mask = np.zeros(n, dtype=bool)
    selected_mask[result.indices] = True

    points: List[FidelityPoint] = []
    start = origin
    while start <= horizon:
        end = start + window_us
        lo = int(np.searchsorted(trace.timestamps_us, start, side="left"))
        hi = int(np.searchsorted(trace.timestamps_us, end, side="left"))
        window_values = values[lo:hi]
        window_mask = selected_mask[lo:hi]
        defined = ~np.isnan(window_values)
        population_values = window_values[defined]
        sampled_values = window_values[defined & window_mask]
        phi: Optional[float] = None
        if (
            population_values.size >= min_sampled
            and sampled_values.size >= min_sampled
        ):
            phi = evaluate_all(
                target.bins.counts(sampled_values),
                target.bins.proportions(population_values),
                sampled_values.size / population_values.size,
            ).phi
        points.append(
            FidelityPoint(
                start_us=start,
                end_us=end,
                population=int(population_values.size),
                sampled=int(sampled_values.size),
                phi=phi,
            )
        )
        start = end
    return points


def worst_window(points: List[FidelityPoint]) -> Optional[FidelityPoint]:
    """The usable window with the largest phi (None if none usable)."""
    usable = [p for p in points if p.usable]
    if not usable:
        return None
    return max(usable, key=lambda p: p.phi)
