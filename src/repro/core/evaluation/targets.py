"""Characterization targets.

A target pairs a per-packet attribute with the bin ranges it is
assessed over.  The paper's two targets are the packet-size and
packet-interarrival-time distributions (Section 7.1).

The interarrival attribute deserves care.  When the monitor selects a
packet it knows the time since the *previous packet arrived at the
interface* — the parent trace's gap — so a sampled packet contributes
its own predecessor gap to the sampled distribution.  (Computing gaps
between consecutive *selected* packets would instead estimate a
granularity-scaled distribution and would be meaningless at any
fraction below 1; the paper's Figure 5 histograms confirm the
attribute reading.)  This is exactly why timer-driven sampling skews
the interarrival target: the packet that follows a timer expiry tends
to follow an idle period, so its predecessor gap is biased large.

Targets therefore expose two extractors: attribute values for the
whole population, and attribute values for a set of selected parent
indices.  Scoring reads neither: it bins a population once into
per-packet bin ids (:meth:`CharacterizationTarget.bin_ids`) and counts
a sample by gathering its packets' ids.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.metrics.bins import (
    BinSpec,
    INTERARRIVAL_BINS_US,
    PACKET_SIZE_BINS,
)
from repro.trace.trace import Trace


@dataclass(frozen=True)
class CharacterizationTarget:
    """A per-packet attribute and its assessment bins.

    ``attribute`` maps a trace to one value per packet; entries may be
    NaN for packets whose attribute is undefined (the first packet has
    no interarrival gap) and are dropped by the extractors.
    """

    name: str
    bins: BinSpec
    attribute: Callable[[Trace], np.ndarray]

    def attribute_values(self, trace: Trace) -> np.ndarray:
        """The raw per-packet attribute array (NaN where undefined).

        Extraction is O(population); sweeps that score many samples
        against one population should call this once and pass the
        result to :meth:`sample_values`.
        """
        values = np.asarray(self.attribute(trace), dtype=np.float64)
        if values.shape != (len(trace),):
            raise ValueError(
                "attribute produced %s values for %d packets"
                % (values.shape, len(trace))
            )
        return values

    def population_values(self, trace: Trace) -> np.ndarray:
        """Defined attribute values of every packet in the population."""
        values = self.attribute_values(trace)
        return values[~np.isnan(values)]

    def sample_values(
        self,
        trace: Trace,
        indices: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Defined attribute values of the selected packets.

        ``values`` optionally supplies a precomputed
        :meth:`attribute_values` array.
        """
        if values is None:
            values = self.attribute_values(trace)
        picked = values[np.asarray(indices, dtype=np.int64)]
        return picked[~np.isnan(picked)]

    def bin_ids(self, trace: Trace) -> np.ndarray:
        """Each packet's bin index, or ``bins.n_bins`` where undefined.

        One comparison pass per edge over :meth:`attribute_values`,
        with the edges' convention (a value on an edge belongs to the
        bin above it).  The ids are the smallest unsigned integers that
        hold ``n_bins`` (uint8 for the paper's bins), so a sweep keeps
        one small column per window and target and counts each sample
        from it with :meth:`bin_id_counts`.
        """
        values = self.attribute_values(trace)
        ids = np.zeros(values.shape, dtype=np.min_scalar_type(self.bins.n_bins))
        for edge in self.bins.edge_array.tolist():
            ids += values >= edge
        ids[np.isnan(values)] = self.bins.n_bins
        return ids

    def bin_id_counts(self, ids: np.ndarray) -> np.ndarray:
        """Packets per bin among ``ids``; undefined packets are not counted.

        Equal to ``bins.counts`` of the same packets' defined values.
        """
        return np.array(
            [np.count_nonzero(ids == b) for b in range(self.bins.n_bins)],
            dtype=np.int64,
        )


def _size_attribute(trace: Trace) -> np.ndarray:
    return trace.sizes.astype(np.float64)


def _interarrival_attribute(trace: Trace) -> np.ndarray:
    values = np.full(len(trace), np.nan)
    if len(trace) >= 2:
        values[1:] = np.diff(trace.timestamps_us).astype(np.float64)
    return values


#: Packet-size distribution target (bytes; paper Section 7.1.1).
PACKET_SIZE_TARGET = CharacterizationTarget(
    name="packet-size",
    bins=PACKET_SIZE_BINS,
    attribute=_size_attribute,
)

#: Interarrival-time distribution target (us; paper Section 7.1.2).
INTERARRIVAL_TARGET = CharacterizationTarget(
    name="interarrival",
    bins=INTERARRIVAL_BINS_US,
    attribute=_interarrival_attribute,
)

#: Both of the paper's analysis targets.
PAPER_TARGETS = (PACKET_SIZE_TARGET, INTERARRIVAL_TARGET)
