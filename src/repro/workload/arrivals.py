"""Train-structured bursty arrival process.

Packets leave the campus for the backbone in *trains*: bursts of
back-to-back packets from one conversation, separated by longer idle
gaps.  This produces the interarrival population of the paper's
Table 3 — a heavy lower mode of sub-millisecond intra-train gaps (25%
of gaps at or below one 400 us clock tick) under a skewed body of
inter-train gaps (median 1600 us, mean 2358 us, 95th percentile
7600 us).

Model
-----
* train lengths per application component: shifted geometric
  (see :class:`repro.workload.mix.ApplicationComponent`);
* intra-train gaps: exponential with a fixed, load-independent mean
  (back-to-back transmission is a property of the sender, not of the
  aggregate load);
* inter-train gaps: gamma distributed (shape > 1 dampens the
  exponential's heavy head) with a mean chosen *per second* so the
  aggregate packet rate tracks the non-stationary
  :class:`repro.workload.rates.RateProcess` sequence.

Generation is sequential in time: the per-second rate parameter takes
effect at the first arrival past each second boundary, so a gap drawn
just before a boundary may extend into the next second — the standard
(and here negligible, given lag-1 rate autocorrelation ~0.7)
approximation of any rate-modulated renewal process.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.workload.mix import ApplicationMix, selection_cdf

_US_PER_S = 1_000_000.0


@dataclass(frozen=True)
class TrainArrivalModel:
    """Arrival-time generator over an application mix.

    Parameters
    ----------
    mix:
        Application mix supplying train-level component probabilities
        and train-length distributions.
    intra_gap_mean_us:
        Mean of the exponential intra-train (within-burst) gap.
    inter_gap_shape:
        Gamma shape of the inter-train gap; 1.0 recovers an
        exponential, larger values thin the sub-millisecond head so
        the lower mode of the gap population comes from trains alone.
    min_inter_gap_mean_us:
        Floor on the derived per-second inter-train mean, guarding
        against rates too high for the intra-gap budget.
    max_train_length:
        Hard cap on geometric train lengths.
    """

    mix: ApplicationMix
    intra_gap_mean_us: float = 400.0
    inter_gap_shape: float = 1.7
    min_inter_gap_mean_us: float = 50.0
    max_train_length: int = 64

    def __post_init__(self) -> None:
        if self.intra_gap_mean_us <= 0:
            raise ValueError("intra-train gap mean must be positive")
        if self.inter_gap_shape <= 0:
            raise ValueError("inter-train gamma shape must be positive")
        if self.max_train_length < 1:
            raise ValueError("max train length must be at least 1")

    # ------------------------------------------------------------------

    def inter_gap_mean_us(
        self, rate_pps: np.ndarray, mean_train_length: np.ndarray = None
    ) -> np.ndarray:
        """Inter-train gap mean that yields ``rate_pps`` packets/s.

        With mean train length g, a fraction (g-1)/g of gaps are
        intra-train; solving
        ``f_intra * mu_intra + f_inter * mu_inter = 1e6 / rate``
        for ``mu_inter``.  ``mean_train_length`` supplies g, since it
        depends on the (possibly modulated) mix in force; by default the
        base mix's.  Elementwise over arrays of rates and g.
        """
        rates = np.asarray(rate_pps, dtype=np.float64)
        if (rates <= 0).any():
            raise ValueError("rates must be positive, got %r" % (rate_pps,))
        g = self.mix.mean_train_length() if mean_train_length is None else mean_train_length
        f_intra = (g - 1.0) / g
        f_inter = 1.0 / g
        mean_gap = _US_PER_S / rates
        mu_inter = (mean_gap - f_intra * self.intra_gap_mean_us) / f_inter
        return np.maximum(mu_inter, self.min_inter_gap_mean_us)

    def generate(
        self,
        rates_pps: np.ndarray,
        rng: np.random.Generator,
        train_probs_per_second: np.ndarray = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate arrivals for one rate value per second.

        Each second draws batches of trains until an arrival passes
        its end.  A batch draws, in this order: one uniform per train
        (its component, through the second's selection CDF), the
        geometric lengths of each multi-packet component's trains in
        component order, one exponential gap per packet, and one gamma
        inter-train gap per train.  Everything else is set up once,
        before the first draw.

        Parameters
        ----------
        rates_pps:
            Per-second target packet rates (one entry per second of
            trace duration).
        rng:
            Source of randomness.
        train_probs_per_second:
            Optional (n_seconds x n_components) matrix of modulated
            train-selection probabilities; by default the mix's base
            probabilities apply throughout.  Every row must be finite,
            non-negative and sum to 1 (within ``sqrt(eps)``).

        Returns
        -------
        (timestamps_us, component_indices):
            Float timestamps in microseconds from trace start, strictly
            increasing, and the application-component index of each
            packet, in the smallest unsigned dtype that holds the
            mix's largest index (``np.min_scalar_type``: uint8 for
            every shipped mix).
        """
        rates = np.asarray(rates_pps, dtype=np.float64)
        if rates.ndim != 1:
            raise ValueError("rates must be a one-dimensional array")
        components = self.mix.components
        shape = (rates.size, len(components))
        if train_probs_per_second is None:
            probs = np.broadcast_to(self.mix.train_probabilities, shape)
        else:
            probs = np.asarray(train_probs_per_second, dtype=np.float64)
            if probs.shape != shape:
                raise ValueError(
                    "train probability matrix must be (n_seconds, n_components)"
                )
            _check_train_probs(probs)
        cdfs = selection_cdf(probs)
        g = np.array([self.mix.mean_train_length(row) for row in probs])
        scales = self.inter_gap_mean_us(rates, g) / self.inter_gap_shape
        # Kept arrivals and lengths are stored exact-size and narrow: views
        # would hold each second's whole overdrawn batch.
        key = np.min_scalar_type(len(components) - 1)
        length_key = np.min_scalar_type(self.max_train_length)
        times = [np.empty(0)]
        train_comps = [np.empty(0, dtype=key)]
        train_lengths = [np.empty(0, dtype=length_key)]
        t = 0.0
        for second, (rate, g_s, scale) in enumerate(
            zip(rates.tolist(), g.tolist(), scales.tolist())
        ):
            end = (second + 1) * _US_PER_S
            cdf = cdfs[second]
            while t < end:
                expected_packets = max((end - t) * rate / _US_PER_S, 1.0)
                n_trains = max(4, int(expected_packets / g_s * 1.25) + 4)
                comp = cdf.searchsorted(rng.random(n_trains), side="right").astype(key)
                # Lengths grouped by component, trains in order within.
                counts = np.bincount(comp, minlength=len(components)).tolist()
                grouped = np.empty(n_trains, dtype=np.int64)
                stop = 0
                for component, count in zip(components, counts):
                    start, stop = stop, stop + count
                    if count:
                        grouped[start:stop] = component.draw_train_lengths(count, rng)
                lengths = np.empty_like(grouped)
                lengths[comp.argsort(kind="stable")] = grouped
                np.minimum(lengths, self.max_train_length, out=lengths)
                ends = lengths.cumsum()
                starts = ends - lengths
                gaps = rng.exponential(self.intra_gap_mean_us, size=int(ends[-1]))
                gaps[starts] = rng.gamma(self.inter_gap_shape, scale, size=n_trains)
                arrivals = gaps.cumsum()
                arrivals += t
                cut = int(arrivals.searchsorted(end, side="left"))
                if cut < arrivals.size:
                    # Commit the boundary-crossing packet too: this makes
                    # the batched construction exactly equivalent to
                    # drawing gaps one at a time, with the rate parameter
                    # switching at the first arrival past the boundary.
                    cut += 1
                # Keep the trains that start before the cut, the last
                # one cut at the boundary packet.
                kept = int(starts.searchsorted(cut, side="left"))
                lengths[kept - 1] = cut - starts[kept - 1]
                times.append(arrivals[:cut].copy())
                train_comps.append(comp[:kept])
                train_lengths.append(lengths[:kept].astype(length_key))
                t = float(arrivals[cut - 1])

        timestamps = np.concatenate(times)
        del times
        components_per_packet = np.repeat(
            np.concatenate(train_comps), np.concatenate(train_lengths)
        )
        return timestamps, components_per_packet


def _check_train_probs(probs: np.ndarray) -> None:
    """``Generator.choice``'s checks of ``p``, made once for every second."""
    with np.errstate(invalid="ignore"):
        off = np.abs(probs.sum(axis=1) - 1.0) > np.sqrt(np.finfo(np.float64).eps)
    bad = ~np.isfinite(probs).all(axis=1) | (probs < 0).any(axis=1) | off
    if bad.any():
        second = int(np.argmax(bad))
        raise ValueError(
            "train probabilities of second %d must be finite, non-negative "
            "and sum to 1, got %r" % (second, probs[second].tolist())
        )
