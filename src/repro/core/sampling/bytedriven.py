"""Byte-driven systematic sampling (a post-paper extension).

The paper's event-driven methods count *packets*; the other natural
event stream is *bytes* (select the packet containing every k-th byte
— the lineage that later surfaced in sFlow's byte-window options).
Byte-driven selection picks each packet with probability proportional
to its size, which cuts two ways:

* for packet-attribute targets (the paper's size and interarrival
  distributions) it is **size-biased** — large packets are
  over-represented, so the sampled size distribution is provably
  skewed;
* for byte-volume attribution (billing!) it is the natural unbiased
  design: every byte has the same chance of selection, so per-customer
  byte volumes scale up without the small-packet noise of
  packet-driven estimates.

Including it lets the reproduction demonstrate that "which event
stream you count" is as consequential a design axis as the
packet-vs-timer trigger the paper studied.
"""

from typing import Dict, Optional

import numpy as np

from repro.core.sampling.base import Sampler, unique_hits
from repro.trace.trace import Trace


class ByteSystematicSampler(Sampler):
    """Select the packet carrying every ``byte_granularity``-th byte.

    Parameters
    ----------
    byte_granularity:
        The byte stride k: one selection per k bytes of traffic.  To
        target a sampling *fraction* comparable with packet-driven
        methods at packet granularity g, use ``g * mean_packet_size``
        (see :meth:`for_packet_granularity`).
    phase:
        Byte offset of the first selection point, in ``[0, k)``.

    A packet spanning several selection points is selected once
    (deduplicated), so very coarse strides behave gracefully.
    """

    name = "byte-systematic"

    def __init__(self, byte_granularity: int, phase: int = 0) -> None:
        if byte_granularity < 1:
            raise ValueError(
                "byte granularity must be >= 1, got %d" % byte_granularity
            )
        if not 0 <= phase < byte_granularity:
            raise ValueError(
                "phase must be in [0, %d), got %d" % (byte_granularity, phase)
            )
        self.byte_granularity = byte_granularity
        self.phase = phase

    @classmethod
    def for_packet_granularity(
        cls, trace: Trace, granularity: int, phase: int = 0
    ) -> "ByteSystematicSampler":
        """A byte stride whose expected sample size matches 1-in-k packets."""
        if granularity < 1:
            raise ValueError("granularity must be >= 1")
        if not len(trace):
            raise ValueError("need a non-empty trace to derive a byte stride")
        mean_size = trace.total_bytes / len(trace)
        stride = max(int(round(granularity * mean_size)), 1)
        return cls(byte_granularity=stride, phase=min(phase, stride - 1))

    def _selection_points(self, trace: Trace) -> np.ndarray:
        """Packet index hit by each byte-selection point (with repeats)."""
        cum = np.concatenate(([0], np.cumsum(trace.sizes.astype(np.int64))))
        total = int(cum[-1])
        if self.phase >= total:
            return np.empty(0, dtype=np.int64)
        points = np.arange(self.phase, total, self.byte_granularity)
        return (np.searchsorted(cum, points, side="right") - 1).astype(
            np.int64
        )

    def sample_indices(
        self, trace: Trace, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        return unique_hits(self._selection_points(trace))

    def sample_with_multiplicity(self, trace: Trace):
        """Selected indices plus selection points landing in each.

        The multiplicities are what unbiased byte-volume estimation
        needs: a packet hit by m selection points represents
        ``m * byte_granularity`` bytes of the stream.

        Returns ``(indices, multiplicities)``, aligned arrays.
        """
        return unique_hits(self._selection_points(trace), return_counts=True)

    def parameters(self) -> Dict[str, float]:
        return {
            "byte_granularity": float(self.byte_granularity),
            "phase": float(self.phase),
        }


def byte_volume_estimate(
    multiplicities: np.ndarray, byte_granularity: int
) -> float:
    """Unbiased total-byte estimate from a byte-driven sample.

    Each selection point represents ``byte_granularity`` bytes of the
    stream, so the estimate is the total number of selection points
    times the stride.  Pass per-packet point counts from
    :meth:`ByteSystematicSampler.sample_with_multiplicity` (or any
    subset of them, for per-customer attribution).
    """
    if byte_granularity < 1:
        raise ValueError("byte granularity must be >= 1")
    counts = np.asarray(multiplicities, dtype=np.int64)
    return float(counts.sum() * byte_granularity)
