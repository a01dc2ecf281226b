"""Fixed-edge histogram helpers.

The chi-square family of metrics compares *bin counts* between a sample
and its parent population over a fixed set of ranges (Section 7.1).
These helpers bin data against explicit interior edges, producing
``len(edges) + 1`` bins: ``(-inf, e0), [e0, e1), ..., [ek, inf)``.

That edge convention matches the paper's wording — e.g. packet sizes
"less than 41; between 41 and 180; and greater than 180" are produced
by interior edges (41, 181).
"""

from typing import Sequence

import numpy as np


def _validated_edges(edges: Sequence[float]) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need at least one interior bin edge")
    if np.isnan(arr).any() or np.any(np.diff(arr) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    return arr


def bin_counts(values: Sequence[float], edges: Sequence[float]) -> np.ndarray:
    """Counts per bin for interior ``edges``.

    Bin ``i`` holds values in ``[edges[i-1], edges[i])`` with open ends
    below the first and at-or-above the last edge; NaN lands in the
    last bin, as ``np.searchsorted(edges, values, side="right")`` puts
    it.  One comparison pass per edge counts the values below it, and
    the bins are the differences of those totals: with a handful of
    edges that beats a binary search per value plus ``np.bincount``.
    """
    return _edge_counts(values, _validated_edges(edges))


def _edge_counts(values: Sequence[float], edge_arr: np.ndarray) -> np.ndarray:
    """:func:`bin_counts` over edges already validated into ``edge_arr``.

    For holders that validated their edges once, when they were built.
    """
    arr = np.asarray(values, dtype=np.float64)
    below = [np.count_nonzero(arr < edge) for edge in edge_arr.tolist()]
    return np.diff(np.array([0, *below, arr.size], dtype=np.int64))


def bin_proportions(values: Sequence[float], edges: Sequence[float]) -> np.ndarray:
    """Proportion of the sample in each bin; errors on empty input."""
    return count_proportions(bin_counts(values, edges))


def count_proportions(counts: np.ndarray) -> np.ndarray:
    """Per-bin counts as proportions of their total; errors on empty input."""
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot compute proportions of an empty sample")
    return counts / float(total)
