"""Stratified random (one random packet per bucket) sampling.

"Stratified random sampling is similar to systematic sampling, except
that rather than selecting the first packet from each bucket, a packet
is selected randomly from each bucket" (Section 4).  Buckets are
consecutive runs of ``granularity`` packets; as in the paper's
experiments, bucket sizes are constant by default, but the paper notes
"the bucket sizes do not necessarily have to be constant" —
:class:`VariableStratifiedSampler` implements the general form with
explicit stratum boundaries.
"""

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.sampling.base import Sampler, require_rng
from repro.core.sampling.streaming import StreamingStratified
from repro.trace.trace import Trace


class StratifiedRandomSampler(Sampler):
    """Select one uniformly random packet from each k-packet bucket.

    Each complete bucket's pick is
    :class:`~repro.core.sampling.StreamingStratified`'s kernel, run
    over the whole trace with the same generator.  The final partial
    bucket (fewer than k packets), if any, also contributes one
    uniformly random packet, so the achieved fraction stays within one
    packet of 1/k.
    """

    name = "stratified"

    def __init__(self, granularity: int) -> None:
        if granularity < 1:
            raise ValueError("granularity must be >= 1, got %d" % granularity)
        self.granularity = granularity

    def sample_indices(
        self, trace: Trace, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        rng = require_rng(rng)
        n = len(trace)
        complete = n - n % self.granularity
        selector = StreamingStratified(self.granularity, rng=rng)
        kept = selector.kept_positions(trace.timestamps_us[:complete])
        if complete == n:
            return kept
        return np.append(kept, complete + int(rng.random() * (n - complete)))

    def parameters(self) -> Dict[str, float]:
        return {"granularity": float(self.granularity)}


class VariableStratifiedSampler(Sampler):
    """Stratified sampling with explicit, possibly unequal strata.

    Parameters
    ----------
    boundaries:
        Strictly increasing packet positions where new strata begin.
        Strata are ``[0, b0), [b0, b1), ..., [b_last, N)``; each
        non-empty stratum contributes one uniformly random packet.
        Positions at or beyond the trace length yield empty strata,
        which are skipped — so one boundary list can serve windows of
        different sizes.

    Unequal strata let an operator spend samples where the traffic is
    interesting (e.g. fine strata during busy hours, coarse overnight)
    while keeping the one-per-stratum structure that makes the
    estimator's variance analyzable.
    """

    name = "stratified-variable"

    def __init__(self, boundaries: Sequence[int]) -> None:
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size == 0:
            raise ValueError("need at least one stratum boundary")
        if bounds[0] <= 0:
            raise ValueError("boundaries must be positive packet positions")
        if np.any(np.diff(bounds) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        self.boundaries = bounds

    def sample_indices(
        self, trace: Trace, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        rng = require_rng(rng)
        n = len(trace)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        edges = np.concatenate(
            ([0], self.boundaries[self.boundaries < n], [n])
        ).astype(np.int64)
        starts = edges[:-1]
        sizes = np.diff(edges)
        offsets = (rng.random(starts.size) * sizes).astype(np.int64)
        return starts + offsets

    def parameters(self) -> Dict[str, float]:
        return {"strata": float(self.boundaries.size + 1)}
