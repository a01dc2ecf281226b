"""Proportion-based characterization targets (Section 8 extension).

The paper's two targets bin *numeric* attributes.  Many operational
objects are *categorical*: the share of traffic per transport protocol
or per well-known port.  The same scoring machinery applies directly —
categories play the role of bins — which is precisely the extension
Section 8 sketches.

:class:`CategoricalTarget` assigns each packet a category code;
:func:`score_categorical` computes the full Section 5.2 metric set for
a sampled sub-population against the parent's category proportions.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.core.metrics.registry import DisparityScores, evaluate_all
from repro.core.sampling.base import SamplingResult
from repro.netmon.objects import WELL_KNOWN_PORTS
from repro.trace.packet import IPPROTO_TCP, IPPROTO_UDP, PROTOCOL_NAMES
from repro.trace.trace import Trace


@dataclass(frozen=True)
class CategoricalTarget:
    """A per-packet category assignment.

    ``categorize`` maps a trace to one small non-negative integer code
    per packet; ``labels[code]`` names the category.
    """

    name: str
    labels: Tuple[str, ...]
    categorize: Callable[[Trace], np.ndarray]

    def counts(self, trace: Trace, indices: np.ndarray = None) -> np.ndarray:
        """Category counts for the whole trace or a selected subset."""
        codes = np.asarray(self.categorize(trace), dtype=np.int64)
        if codes.shape != (len(trace),):
            raise ValueError(
                "categorizer produced %s codes for %d packets"
                % (codes.shape, len(trace))
            )
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.labels)):
            raise ValueError("category codes out of range")
        if indices is not None:
            codes = codes[np.asarray(indices, dtype=np.int64)]
        return np.bincount(codes, minlength=len(self.labels)).astype(np.int64)

    def proportions(self, trace: Trace) -> np.ndarray:
        """Category proportions over the whole trace."""
        counts = self.counts(trace)
        total = counts.sum()
        if total == 0:
            raise ValueError("cannot compute proportions of an empty trace")
        return counts / float(total)


def protocol_target() -> CategoricalTarget:
    """Protocol-over-IP mix: TCP / UDP / ICMP / other."""
    order = sorted(PROTOCOL_NAMES)
    code_of = {proto: i for i, proto in enumerate(order)}
    labels = tuple(PROTOCOL_NAMES[p] for p in order) + ("other",)

    def categorize(trace: Trace) -> np.ndarray:
        codes = np.full(len(trace), len(order), dtype=np.int64)
        for proto, code in code_of.items():
            codes[trace.protocols == proto] = code
        return codes

    return CategoricalTarget(
        name="protocol-mix", labels=labels, categorize=categorize
    )


def port_target(
    ports: Sequence[int] = WELL_KNOWN_PORTS,
) -> CategoricalTarget:
    """Well-known-port mix over TCP/UDP traffic, with an "other" class.

    A packet is attributed to the first listed port matching either
    endpoint; TCP/UDP packets matching none fall in "other", and
    portless protocols (ICMP) in "no-port".
    """
    port_list = tuple(ports)
    labels = tuple("port-%d" % p for p in port_list) + ("other", "no-port")
    other_code = len(port_list)
    noport_code = len(port_list) + 1

    def categorize(trace: Trace) -> np.ndarray:
        codes = np.full(len(trace), noport_code, dtype=np.int64)
        has_ports = np.isin(trace.protocols, (IPPROTO_TCP, IPPROTO_UDP))
        codes[has_ports] = other_code
        # Later-listed ports do not override earlier matches.
        unclaimed = has_ports.copy()
        for i, port in enumerate(port_list):
            match = unclaimed & (
                (trace.src_ports == port) | (trace.dst_ports == port)
            )
            codes[match] = i
            unclaimed &= ~match
        return codes

    return CategoricalTarget(name="port-mix", labels=labels, categorize=categorize)


def score_categorical(
    trace: Trace,
    result: SamplingResult,
    target: CategoricalTarget,
    proportions: np.ndarray = None,
) -> DisparityScores:
    """Score a sampled sub-population on a categorical target.

    ``proportions`` are the parent's own, which the sample's counts
    are scored against as they are: a category the population lacks
    holds no sampled packet either, and scores nothing.
    """
    if proportions is None:
        proportions = target.proportions(trace)
    observed = target.counts(trace, result.indices)
    if not np.any(proportions > 0):
        raise ValueError("population has no occupied categories")
    return evaluate_all(observed, proportions, fraction=result.fraction)


def estimate_proportions(
    trace: Trace, result: SamplingResult, target: CategoricalTarget
) -> Dict[str, float]:
    """Sampled point estimates of each category's proportion."""
    observed = target.counts(trace, result.indices)
    total = observed.sum()
    if total == 0:
        raise ValueError("empty sample")
    return {
        label: float(count) / total
        for label, count in zip(target.labels, observed)
    }
