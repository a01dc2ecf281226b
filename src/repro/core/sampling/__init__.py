"""The paper's five sampling methods (Section 4).

Every sampler consumes a parent :class:`~repro.trace.Trace` and
produces a :class:`SamplingResult`: the sorted parent indices selected,
plus enough bookkeeping (achieved fraction, method name, parameters)
for the evaluation harness to label and weight scores.

Packet-driven (event-driven) methods:

* :class:`SystematicSampler` — every k-th packet, deterministic;
* :class:`StratifiedRandomSampler` — one packet uniformly at random
  from each consecutive bucket of k packets;
* :class:`SimpleRandomSampler` — n packets uniformly at random from
  the whole population.

Timer-driven methods (Section 4: "when the timer expires, we select
the next packet to arrive"):

* :class:`TimerSystematicSampler` — a periodic timer;
* :class:`TimerStratifiedSampler` — one uniformly random timer firing
  within each consecutive time bucket.
"""

from repro.core.sampling.base import Sampler, SamplingResult
from repro.core.sampling.systematic import SystematicSampler
from repro.core.sampling.stratified import (
    StratifiedRandomSampler,
    VariableStratifiedSampler,
)
from repro.core.sampling.simple import SimpleRandomSampler
from repro.core.sampling.timer import (
    TimerSampler,
    TimerStratifiedSampler,
    TimerSystematicSampler,
)
from repro.core.sampling.adaptive import AdaptiveSample, AdaptiveSystematic
from repro.core.sampling.bytedriven import (
    ByteSystematicSampler,
    byte_volume_estimate,
)
from repro.core.sampling.streaming import (
    ChunkSelector,
    StreamingReservoir,
    StreamingSampler,
    StreamingStratified,
    StreamingSystematic,
    StreamingTimerSystematic,
)
from repro.core.sampling.factory import (
    METHOD_NAMES,
    PACKET_DRIVEN,
    PREFERRED_PACKET_METHODS,
    make_sampler,
    make_selector,
    paper_methods,
    systematic_phases,
)

__all__ = [
    "Sampler",
    "SamplingResult",
    "SystematicSampler",
    "StratifiedRandomSampler",
    "VariableStratifiedSampler",
    "SimpleRandomSampler",
    "TimerSampler",
    "TimerStratifiedSampler",
    "TimerSystematicSampler",
    "AdaptiveSample",
    "AdaptiveSystematic",
    "ByteSystematicSampler",
    "byte_volume_estimate",
    "ChunkSelector",
    "StreamingReservoir",
    "StreamingSampler",
    "StreamingStratified",
    "StreamingSystematic",
    "StreamingTimerSystematic",
    "METHOD_NAMES",
    "PACKET_DRIVEN",
    "PREFERRED_PACKET_METHODS",
    "make_sampler",
    "make_selector",
    "paper_methods",
    "systematic_phases",
]
