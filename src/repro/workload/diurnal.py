"""Diurnal (24-hour) rate envelopes.

The paper's capture was a full day: "The 24 hour trace is more than
650 MByte long and started at shortly after 22:00 PST on the 22 March
1993.  Of the 24 hours we created a subset of about one hour, from
13:00 to 14:00" — the early-afternoon busy period (Section 3).

:class:`DiurnalProfile` shapes the per-second rate process with a
smooth day curve — an overnight trough, a morning ramp, an afternoon
peak — so a multi-hour trace has the structure from which such a busy
hour would be cut.  :func:`nsfnet_day_trace` generates the day (at a
configurable rate scale, since a full-rate 1993 day is ~36 million
packets) and :func:`busy_hour` cuts the subset the way the paper did.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.trace.clock import MonitorClock
from repro.trace.filters import time_window
from repro.trace.trace import Trace
from repro.workload.generator import TraceGenerator
from repro.workload.rates import RateProcess


@dataclass(frozen=True)
class DiurnalProfile:
    """A smooth 24-hour multiplicative rate envelope.

    The envelope is a two-harmonic cosine day curve normalized to mean
    1.0, parameterized by where the peak falls and how deep the
    overnight trough is.  Multiplying the stationary
    :class:`~repro.workload.rates.RateProcess` output by the envelope
    yields a non-stationary day whose busy-hour statistics match the
    stationary process's calibration.

    Parameters
    ----------
    peak_hour:
        Local hour of the day's maximum (the paper's trace peaked in
        the early afternoon).
    trough_ratio:
        Overnight minimum as a fraction of the peak (0.3 means 3:30 AM
        runs at 30% of 1:30 PM).
    secondary_weight:
        Weight of the second harmonic, which flattens the top of the
        curve into a work-day plateau instead of a sharp noon spike.
    """

    peak_hour: float = 13.5
    trough_ratio: float = 0.35
    secondary_weight: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_hour < 24.0:
            raise ValueError("peak hour must be in [0, 24)")
        if not 0.0 < self.trough_ratio <= 1.0:
            raise ValueError("trough ratio must be in (0, 1]")
        if not 0.0 <= self.secondary_weight < 1.0:
            raise ValueError("secondary weight must be in [0, 1)")

    def envelope(self, hours: np.ndarray) -> np.ndarray:
        """Envelope values at the given hours-of-day (full-day mean 1).

        Normalization uses the curve's analytic whole-day mean, so the
        envelope is a fixed function of clock time: evaluating one hour
        gives that hour's share of a full day's shape, regardless of
        how much of the day is being generated.
        """
        phase = 2.0 * math.pi * (np.asarray(hours, dtype=np.float64)
                                 - self.peak_hour) / 24.0
        shape = np.cos(phase) + self.secondary_weight * np.cos(2.0 * phase)
        # Normalize the raw shape to [trough, 1]; both harmonics have
        # zero mean over a day, so the unit curve's day-mean is
        # -low / (high - low) and the normalizing constant is exact.
        low = self._shape_min_offset()
        high = 1.0 + self.secondary_weight
        unit = (shape - low) / (high - low)
        scaled = self.trough_ratio + (1.0 - self.trough_ratio) * unit
        unit_day_mean = -low / (high - low)
        day_mean = self.trough_ratio + (1.0 - self.trough_ratio) * unit_day_mean
        return scaled / day_mean

    def _shape_min_offset(self) -> float:
        """Minimum of cos(x) + w cos(2x), found analytically.

        With w < 1 the minimum is at cos(x) = -1/(4w) when 4w > 1
        (value -1/(8w) - w), else at x = pi (value w - 1).
        """
        w = self.secondary_weight
        if w > 0.25:
            return -1.0 / (8.0 * w) - w
        return w - 1.0

    def per_second_envelope(self, start_hour: float, n_seconds: int) -> np.ndarray:
        """Envelope sampled per second from ``start_hour``."""
        if n_seconds < 0:
            raise ValueError("n_seconds must be non-negative")
        hours = (start_hour + np.arange(n_seconds) / 3600.0) % 24.0
        return self.envelope(hours)


def nsfnet_day_trace(
    seed: int = 1993,
    start_hour: float = 22.0,
    duration_s: int = 24 * 3600,
    rate_scale: float = 0.1,
    profile: DiurnalProfile = DiurnalProfile(),
    quantize: bool = True,
) -> Tuple[Trace, float]:
    """A diurnally shaped day of traffic.

    Parameters
    ----------
    seed, duration_s, quantize:
        As in :func:`~repro.workload.generator.nsfnet_hour_trace`.
    start_hour:
        Local hour at which the trace starts (the paper's capture
        began shortly after 22:00).
    rate_scale:
        Global rate multiplier; the default 0.1 keeps a full synthetic
        day around 3.5 million packets instead of 36 million.
    profile:
        The diurnal envelope.

    Returns ``(trace, start_hour)`` so callers can map trace time back
    to clock time.
    """
    if rate_scale <= 0:
        raise ValueError("rate scale must be positive")
    base = RateProcess(
        mean=424.2 * rate_scale,
        std=85.1 * rate_scale,
        skewness=0.96,
    )
    generator = TraceGenerator(seed=seed, duration_s=duration_s, rate_process=base)
    rng = np.random.default_rng(seed)
    innovations = base.generate_innovations(duration_s, rng)
    rates = base.rates_from_innovations(innovations)
    rates = rates * profile.per_second_envelope(start_hour, duration_s)
    trace = generator._trace(np.maximum(rates, 1.0), innovations, rng)
    if quantize:
        trace = MonitorClock().quantize_trace(trace)
    return trace, start_hour


def busy_hour(trace: Trace, start_hour: float, hour_of_day: int = 13) -> Trace:
    """Cut the paper's style of one-hour subset from a day trace.

    ``hour_of_day`` is the local clock hour to extract (the paper used
    13:00-14:00); ``start_hour`` is the day trace's starting clock
    hour, as returned by :func:`nsfnet_day_trace`.
    """
    if not 0 <= hour_of_day < 24:
        raise ValueError("hour of day must be in [0, 24)")
    offset_hours = (hour_of_day - start_hour) % 24.0
    start_us = int(offset_hours * 3600 * 1_000_000)
    return time_window(trace, start_us, start_us + 3600 * 1_000_000)
