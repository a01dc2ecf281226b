"""Timer-driven sampling methods.

"Timer-driven sampling methods use a timer rather than a packet
counter to trigger the selection of packets to include in the sample.
When the timer expires, we select the next packet to arrive" (Section
4 — the paper calls the next-arrival rule "a necessary approximation
but seemingly inconsequential"; its headline result is that these
methods are uniformly worse, dramatically so for interarrival times,
because a fixed-rate timer systematically under-visits bursts).

Both methods share the trigger machinery and differ only in how firing
times are placed within each time bucket:

* :class:`TimerSystematicSampler` — a strictly periodic timer;
* :class:`TimerStratifiedSampler` — one uniformly random firing per
  period-length time bucket.

When several firings land between two arrivals they select the same
next packet, which is de-duplicated; the achieved sampling fraction of
timer methods therefore sags below the nominal one on bursty traffic
(one more way a timer under-represents bursts).
"""

from typing import Dict, Optional

import numpy as np

from repro.core.sampling.base import Sampler, require_rng, unique_hits
from repro.trace.trace import Trace


def mean_interarrival_us(trace: Trace) -> float:
    """The trace's mean packet gap: a timer's period per unit granularity."""
    if len(trace) < 2:
        raise ValueError("need at least two packets to derive a timer period")
    return max(trace.duration_us / (len(trace) - 1), 1e-9)


def periodic_firings(
    first_us: float, period_us: float, stop_us: int, start: int = 0
) -> np.ndarray:
    """Firings ``first_us + period_us * j`` for ``j`` from ``start``.

    The last ``j`` is ``floor((stop_us - first_us) / period_us)``: every
    firing before ``stop_us`` is included, and one at or just past it
    may be.
    """
    count = max(int(np.floor((stop_us - first_us) / period_us)) + 1, 0)
    return first_us + period_us * np.arange(start, count)


def next_arrivals(timestamps_us: np.ndarray, firings: np.ndarray) -> np.ndarray:
    """Positions of the next packet to arrive at or after each firing.

    A firing after the last arrival selects nothing, and several
    firings in one gap select their packet once.  Timestamps are
    integers, so the first one at or after a firing is the first at or
    after its ceiling: integer needles search the int64 column as it
    stands, where float ones would convert all of it on every call.
    """
    hits = np.searchsorted(
        timestamps_us, np.ceil(firings).astype(np.int64), side="left"
    )
    hits = hits[hits < timestamps_us.size]
    return unique_hits(hits).astype(np.int64, copy=False)


class TimerSampler(Sampler):
    """Common trigger machinery for timer-driven methods.

    Parameters
    ----------
    period_us:
        Timer period in microseconds.  Choose
        ``mean_interarrival * granularity`` to target a sampling
        fraction of 1/granularity; :meth:`for_granularity` does this
        from the trace itself.
    """

    name = "timer-abstract"

    #: Valid packet-selection rules at timer expiry.
    SELECTION_RULES = ("next", "previous")

    def __init__(self, period_us: float, selection_rule: str = "next") -> None:
        if period_us <= 0:
            raise ValueError("timer period must be positive, got %r" % (period_us,))
        if selection_rule not in self.SELECTION_RULES:
            raise ValueError(
                "selection rule must be one of %s, got %r"
                % (self.SELECTION_RULES, selection_rule)
            )
        self.period_us = float(period_us)
        #: The paper's rule is "next packet to arrive" after expiry;
        #: "previous" (most recently seen packet) is the ablation
        #: variant a buffer-holding monitor would implement.
        self.selection_rule = selection_rule

    @classmethod
    def for_granularity(cls, trace: Trace, granularity: int) -> "TimerSampler":
        """Build the sampler whose period targets fraction 1/granularity.

        The period is the trace's mean interarrival time multiplied by
        the granularity, so the expected number of firings equals the
        packet-driven methods' sample size at the same granularity.
        """
        if granularity < 1:
            raise ValueError("granularity must be >= 1, got %d" % granularity)
        return cls(period_us=mean_interarrival_us(trace) * granularity)

    def _firing_times(
        self, start_us: int, stop_us: int, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """Timer firing times within [start_us, stop_us)."""
        raise NotImplementedError

    def sample_indices(
        self, trace: Trace, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if len(trace) == 0:
            return np.empty(0, dtype=np.int64)
        start = int(trace.timestamps_us[0])
        stop = int(trace.timestamps_us[-1]) + 1
        firings = self._firing_times(start, stop, rng)
        if self.selection_rule == "next":
            return next_arrivals(trace.timestamps_us, firings)
        # Most recent packet at or before each firing, which is the most
        # recent at or before its floor (see next_arrivals).
        needles = np.floor(firings).astype(np.int64)
        idx = np.searchsorted(trace.timestamps_us, needles, side="right") - 1
        idx = idx[idx >= 0]
        return unique_hits(idx).astype(np.int64, copy=False)

    def parameters(self) -> Dict[str, float]:
        return {"period_us": self.period_us}


class TimerSystematicSampler(TimerSampler):
    """Strictly periodic timer: firings at ``start + phase + j * period``.

    ``phase_us`` plays the same replication role as the packet-driven
    systematic sampler's packet phase: it shifts where the periodic
    pattern starts without changing the sampling fraction.
    """

    name = "timer-systematic"

    def __init__(
        self,
        period_us: float,
        phase_us: float = 0.0,
        selection_rule: str = "next",
    ) -> None:
        super().__init__(period_us, selection_rule=selection_rule)
        if not 0.0 <= phase_us < period_us:
            raise ValueError(
                "phase must be in [0, period), got %r" % (phase_us,)
            )
        self.phase_us = float(phase_us)

    def _firing_times(
        self, start_us: int, stop_us: int, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        return periodic_firings(start_us + self.phase_us, self.period_us, stop_us)

    def parameters(self) -> Dict[str, float]:
        params = super().parameters()
        params["phase_us"] = self.phase_us
        return params


class TimerStratifiedSampler(TimerSampler):
    """One uniformly random firing within each period-length bucket."""

    name = "timer-stratified"

    def _firing_times(
        self, start_us: int, stop_us: int, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        rng = require_rng(rng)
        bucket_starts = periodic_firings(start_us, self.period_us, stop_us)
        return bucket_starts + rng.random(bucket_starts.size) * self.period_us
