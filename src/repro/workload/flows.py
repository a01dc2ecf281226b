"""Flow identity assignment: network numbers and ports.

The NSFNET statistical objects of Table 1 aggregate by *network
number* (the source-destination traffic matrix) and by TCP/UDP port
(the well-known-port distribution).  To exercise those objects the
synthetic trace needs realistic flow identities: a heavy-tailed
population of campus source networks talking to a heavy-tailed
population of destination networks, with each packet train belonging
to one conversation.

:class:`FlowPool` materializes, per application component, a fixed
table of candidate conversations whose endpoints are drawn from
Zipf-like network-number popularity ranks; each train then selects a
conversation from its component's table, again Zipf-weighted, so a few
conversations are hot and "many traffic pairs generate small amounts
of traffic during typical sampling intervals" (paper Section 8).  The
whole assignment is vectorized: a million-train hour trace labels in
milliseconds.
"""

from typing import Tuple

import numpy as np

from repro.trace.packet import IPPROTO_TCP, IPPROTO_UDP
from repro.workload.mix import ApplicationMix, selection_cdf

#: First ephemeral (client-side) port assigned by 4.3BSD-era stacks.
EPHEMERAL_PORT_BASE = 1024
EPHEMERAL_PORT_SPAN = 4000

#: Source (campus-side) networks are numbered from 1; destination
#: (backbone-side) networks from 1001.  Zero is reserved as "unset".
SRC_NET_BASE = 1
DST_NET_BASE = 1001


def zipf_probabilities(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf rank probabilities p_i ~ 1 / i^exponent."""
    if n < 1:
        raise ValueError("need at least one rank")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class FlowPool:
    """Per-component conversation tables with Zipf-weighted selection.

    Parameters
    ----------
    mix:
        The application mix (component count and server ports).
    n_src_nets, n_dst_nets:
        Sizes of the source and destination network-number populations.
    conversations_per_component:
        Candidate conversations materialized per component.
    zipf_exponent:
        Skew of both the network-number popularity and the
        conversation-selection distributions.
    rng:
        Randomness used to materialize the conversation tables (flow
        *selection* randomness is passed per call).
    """

    def __init__(
        self,
        mix: ApplicationMix,
        n_src_nets: int = 40,
        n_dst_nets: int = 300,
        conversations_per_component: int = 256,
        zipf_exponent: float = 1.0,
        rng: np.random.Generator = None,
    ) -> None:
        if n_src_nets < 1 or n_dst_nets < 1:
            raise ValueError("network populations must be non-empty")
        if conversations_per_component < 1:
            raise ValueError("need at least one conversation per component")
        self.mix = mix
        self.n_src_nets = n_src_nets
        self.n_dst_nets = n_dst_nets
        self.conversations_per_component = conversations_per_component
        rng = rng if rng is not None else np.random.default_rng(0)

        src_probs = zipf_probabilities(n_src_nets, zipf_exponent)
        dst_probs = zipf_probabilities(n_dst_nets, zipf_exponent)
        k = conversations_per_component
        n_comp = len(mix.components)
        self._src_nets = np.empty((n_comp, k), dtype=np.uint16)
        self._dst_nets = np.empty((n_comp, k), dtype=np.uint16)
        self._src_ports = np.empty((n_comp, k), dtype=np.uint16)
        self._dst_ports = np.empty((n_comp, k), dtype=np.uint16)
        for c, component in enumerate(mix.components):
            self._src_nets[c] = SRC_NET_BASE + rng.choice(
                n_src_nets, size=k, p=src_probs
            )
            self._dst_nets[c] = DST_NET_BASE + rng.choice(
                n_dst_nets, size=k, p=dst_probs
            )
            if component.protocol in (IPPROTO_TCP, IPPROTO_UDP):
                self._src_ports[c] = EPHEMERAL_PORT_BASE + rng.integers(
                    0, EPHEMERAL_PORT_SPAN, size=k
                )
            else:
                # Portless protocols (ICMP) carry no port numbers.
                self._src_ports[c] = 0
            self._dst_ports[c] = component.server_port
        self._conversation_cdf = selection_cdf(zipf_probabilities(k, zipf_exponent))

    def assign(
        self, component_indices: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Assign flow identities to a per-packet component sequence.

        Consecutive packets with the same component index are treated
        as one train and share a conversation.  (Two adjacent trains of
        the same component merge here; acceptable, as they would
        plausibly belong to the same conversation anyway.)

        Returns ``(src_nets, dst_nets, src_ports, dst_ports)`` arrays,
        one entry per packet.
        """
        comp = np.asarray(component_indices)
        n = comp.size
        if n == 0:
            empty = np.zeros(0, dtype=np.uint16)
            return empty, empty.copy(), empty.copy(), empty.copy()

        boundaries = np.flatnonzero(comp[1:] != comp[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        lengths = np.diff(np.concatenate((starts, [n])))

        # What rng.choice(p=zipf) draws, without re-validating p.
        conv_idx = self._conversation_cdf.searchsorted(
            rng.random(starts.size), side="right"
        )
        # One compact flat (component, conversation) index addresses every
        # table; indexing with it (``take`` would first copy it to intp)
        # allocates nothing per packet beyond the four columns.
        tables = (self._src_nets, self._dst_nets, self._src_ports, self._dst_ports)
        flat = comp[starts].astype(np.int64) * self.conversations_per_component + conv_idx
        flat = np.repeat(flat.astype(np.min_scalar_type(tables[0].size - 1)), lengths)
        src_nets, dst_nets, src_ports, dst_ports = (t.ravel()[flat] for t in tables)
        return src_nets, dst_nets, src_ports, dst_ports
