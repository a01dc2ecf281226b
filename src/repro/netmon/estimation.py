"""Estimating full-traffic objects from sampled collection.

The whole point of sampled collection (Section 2) is that the
statistical objects, built from every fiftieth packet, still estimate
the traffic: scale counts up by the granularity for totals, or compare
distributions directly — proportions need no scaling at all.

This module provides the two halves:

* :func:`scale_up_counts` — multiply a sampled object's counters by
  the sampling granularity, for totals-style reporting;
* :func:`object_phi` — score a sampled object's distribution against
  the full object's with the paper's phi coefficient, treating the
  object's categories as bins.  This extends the paper's methodology
  from packet attributes to the operational Table 1 objects
  themselves, exactly the direction Section 8 sketches.
"""

from typing import Dict, Tuple

import numpy as np

from repro.core.metrics.registry import evaluate_all


def scale_up_counts(counts: Dict, granularity: int) -> Dict:
    """Scale a sampled object's counters to full-traffic estimates.

    Works on the flat ``{key: count}`` dictionaries the Table 1
    objects snapshot (matrix pairs, ports, protocol names).
    """
    if granularity < 1:
        raise ValueError("granularity must be >= 1, got %d" % granularity)
    return {key: value * granularity for key, value in counts.items()}


def aligned_counts(
    full_counts: Dict, sampled_counts: Dict
) -> Tuple[np.ndarray, np.ndarray]:
    """Align two count dictionaries over the union of their keys.

    Returns ``(full, sampled)`` arrays in a deterministic (sorted-key)
    order, with zeros where a key is absent — the common precursor to
    any distribution comparison between a full and a sampled object.
    """
    keys = sorted(set(full_counts) | set(sampled_counts), key=repr)
    full = np.array([full_counts.get(k, 0) for k in keys], dtype=np.float64)
    sampled = np.array(
        [sampled_counts.get(k, 0) for k in keys], dtype=np.float64
    )
    return full, sampled


def object_phi(full_counts: Dict, sampled_counts: Dict) -> float:
    """phi between a sampled object's distribution and the full one's.

    Categories the full object never saw cannot be scored (the
    chi-square machinery requires support agreement); packets a sample
    attributes to such categories would be a collection bug and raise.
    """
    full, sampled = aligned_counts(full_counts, sampled_counts)
    total = full.sum()
    if total == 0:
        raise ValueError("the full object is empty")
    if np.any(sampled[full == 0] > 0):
        raise ValueError(
            "sampled object has counts in categories the full object lacks"
        )
    # Only phi is read, and phi does not depend on the fraction.
    return evaluate_all(sampled, full / total, fraction=1.0).phi
