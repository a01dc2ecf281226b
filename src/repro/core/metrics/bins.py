"""Bin specifications for the characterization targets.

Section 7.1 fixes the ranges over which distributions are compared:

* packet sizes (bytes): "less than 41; between 41 and 180; and greater
  than 180" — chosen from knowledge of the typical size population
  (ACKs, character echoes, transaction-oriented, bulk transfer);
* interarrival times (microseconds): "less than 800; between 800 and
  1199; between 1200 and 2399; between 2400 and 3599; and greater than
  3600" — chosen for relatively even occupancy.

A :class:`BinSpec` wraps the interior edges with labels and the
counting/proportion helpers the metrics consume.
"""

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.stats.histogram import _edge_counts, _validated_edges, count_proportions


@dataclass(frozen=True)
class BinSpec:
    """A named set of fixed histogram ranges.

    ``edges`` are the interior boundaries; ``len(edges) + 1`` bins
    result, the first open below and the last open above.  They are
    validated once, when the spec is built, into ``edge_array``
    (float64), which the counting helpers use as it stands.
    """

    name: str
    edges: Tuple[float, ...]
    unit: str = ""
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_array", _validated_edges(self.edges))

    @property
    def n_bins(self) -> int:
        """Number of bins."""
        return len(self.edges) + 1

    def labels(self) -> Tuple[str, ...]:
        """Human-readable range labels, e.g. ``"< 41"``, ``"41-180"``."""
        parts = ["< %g" % self.edges[0]]
        for lo, hi in zip(self.edges, self.edges[1:]):
            parts.append("%g-%g" % (lo, hi - 1))
        parts.append(">= %g" % self.edges[-1])
        return tuple(parts)

    def counts(self, values: Sequence[float]) -> np.ndarray:
        """Observed counts per bin."""
        return _edge_counts(values, self.edge_array)

    def proportions(self, values: Sequence[float]) -> np.ndarray:
        """Observed proportions per bin."""
        return count_proportions(self.counts(values))


#: The paper's packet-size bins (bytes): ACK-sized, interactive, bulk.
PACKET_SIZE_BINS = BinSpec(name="packet-size", edges=(41, 181), unit="bytes")

#: The paper's interarrival-time bins (microseconds).
INTERARRIVAL_BINS_US = BinSpec(
    name="interarrival", edges=(800, 1200, 2400, 3600), unit="us"
)
