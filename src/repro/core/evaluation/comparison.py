"""Scoring one sample against its parent population.

Implements the paper's evaluation step: bin the population once into
per-packet bin ids, count the population's ids and the sample's, and
compute the disparity metrics of Section 5.2.  The population's actual
bin proportions are used as the expected distribution — "because we
have access to the actual parameters of this parent population, we use
them rather than estimates of them" (Section 4).
"""

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.evaluation.targets import CharacterizationTarget
from repro.core.metrics.registry import DisparityScores, evaluate_all
from repro.core.sampling.base import SamplingResult
from repro.stats.histogram import count_proportions
from repro.trace.trace import Trace


def population_proportions(
    trace: Trace, target: CharacterizationTarget
) -> np.ndarray:
    """The parent population's bin proportions for a target.

    Sweeps should compute these once per (trace, target) pair and pass
    them to :func:`score_sample`; a sweep that holds the population's
    bin ids derives them with :func:`bin_id_proportions` instead of
    binning the population again.
    """
    return bin_id_proportions(target, target.bin_ids(trace))


def bin_id_proportions(target: CharacterizationTarget, ids: np.ndarray) -> np.ndarray:
    """Bin proportions of the defined packets among a population's bin ids."""
    return count_proportions(target.bin_id_counts(ids))


@dataclass(frozen=True)
class SampleScore:
    """A scored sample: where it came from and how it did."""

    target: str
    method: str
    parameters: Dict[str, float]
    sample_size: int
    fraction: float
    observed: np.ndarray
    scores: DisparityScores

    @property
    def phi(self) -> float:
        """Shortcut to the paper's headline metric."""
        return self.scores.phi


def score_sample(
    trace: Trace,
    result: SamplingResult,
    target: CharacterizationTarget,
    proportions: Optional[np.ndarray] = None,
    bin_ids: Optional[np.ndarray] = None,
) -> SampleScore:
    """Score a sampling result on one characterization target.

    Parameters
    ----------
    trace:
        The parent population the sample was drawn from.
    result:
        The sampler's output (sorted parent indices).
    target:
        What to assess (sizes, interarrivals, ...).
    proportions:
        Optional precomputed population bin proportions; computed from
        the trace when omitted.
    bin_ids:
        Optional precomputed per-packet bin ids of the trace
        (:meth:`CharacterizationTarget.bin_ids`); sweeps that score
        many samples should precompute them once.

    The sample's counts are its packets' ids, counted per bin; packets
    whose attribute is undefined are not counted.
    """
    if bin_ids is None:
        bin_ids = target.bin_ids(trace)
    if proportions is None:
        proportions = bin_id_proportions(target, bin_ids)
    observed = target.bin_id_counts(bin_ids[result.indices])
    scores = evaluate_all(observed, proportions, fraction=result.fraction)
    return SampleScore(
        target=target.name,
        method=result.method,
        parameters=dict(result.parameters),
        sample_size=int(observed.sum()),
        fraction=result.fraction,
        observed=observed,
        scores=scores,
    )
