"""Sampler and selector construction by method name.

The experiment harness iterates over "the five basic methods" of
Section 4 by name; this module centralizes how a (method, granularity)
pair becomes a configured sampler, including the timer methods' need
to derive their period from the trace being sampled, and how the
online subcommands build the streaming selector of a method.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.sampling.base import Sampler, require_rng
from repro.core.sampling.simple import SimpleRandomSampler
from repro.core.sampling.stratified import StratifiedRandomSampler
from repro.core.sampling.streaming import (
    ChunkSelector,
    StreamingStratified,
    StreamingSystematic,
    StreamingTimerSystematic,
)
from repro.core.sampling.systematic import SystematicSampler
from repro.core.sampling.timer import (
    TimerStratifiedSampler,
    TimerSystematicSampler,
)
from repro.trace.trace import Trace

#: The paper's five methods, in its presentation order.
METHOD_NAMES = (
    "systematic",
    "stratified",
    "random",
    "timer-systematic",
    "timer-stratified",
)

#: Methods triggered by packet counts rather than timers.
PACKET_DRIVEN = ("systematic", "stratified", "random")

#: Methods the paper carries into Section 7.3 after dropping the rest.
PREFERRED_PACKET_METHODS = ("systematic", "stratified")


def make_sampler(
    method: str,
    granularity: int,
    trace: Optional[Trace] = None,
    phase: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Sampler:
    """Build a configured sampler.

    Parameters
    ----------
    method:
        One of :data:`METHOD_NAMES`.
    granularity:
        Bucket size k; the nominal sampling fraction is 1/k.
    trace:
        Required for timer methods, whose period is derived from the
        trace's mean interarrival time.
    phase:
        Starting offset for systematic sampling.  If ``rng`` is given
        and ``phase`` is 0, a uniformly random phase is drawn — the
        paper's replication device for the deterministic method.
    rng:
        Randomness for the random-phase convenience; the samplers
        themselves take their rng at :meth:`Sampler.sample` time.
    """
    # Checked before a random phase is drawn from [0, granularity).
    if granularity < 1:
        raise ValueError("granularity must be >= 1, got %d" % granularity)
    if method == "systematic":
        if phase == 0 and rng is not None:
            phase = int(require_rng(rng).integers(0, granularity))
        return SystematicSampler(granularity=granularity, phase=phase)
    if method == "stratified":
        return StratifiedRandomSampler(granularity=granularity)
    if method == "random":
        return SimpleRandomSampler(granularity=granularity)
    if method in ("timer-systematic", "timer-stratified"):
        if trace is None:
            raise ValueError("timer methods need the trace to derive a period")
        if method == "timer-stratified":
            return TimerStratifiedSampler.for_granularity(trace, granularity)
        sampler = TimerSystematicSampler.for_granularity(trace, granularity)
        if rng is not None:
            # Random timer phase: the replication device for the
            # deterministic timer method, mirroring the packet phase.
            phase_us = float(require_rng(rng).random() * sampler.period_us)
            sampler = TimerSystematicSampler(
                period_us=sampler.period_us, phase_us=phase_us
            )
        return sampler
    raise ValueError(
        "unknown sampling method %r; expected one of %s" % (method, METHOD_NAMES)
    )


def make_selector(
    method: str,
    granularity: int,
    seed: int = 0,
    phase: int = 0,
    unit_period_us: float = 0.0,
) -> ChunkSelector:
    """A streaming selector for ``method`` at ``granularity``.

    ``unit_period_us`` is the timer period per unit granularity (the
    mean interarrival, typically); required for ``timer-systematic``.
    """
    if method == "systematic":
        return StreamingSystematic(granularity, phase=phase)
    if method == "stratified":
        return StreamingStratified(
            granularity, rng=np.random.default_rng(seed)
        )
    if method == "timer-systematic":
        if unit_period_us <= 0:
            raise ValueError(
                "timer-systematic needs a positive unit period"
            )
        return StreamingTimerSystematic(period_us=unit_period_us * granularity)
    raise ValueError("unknown streaming method %r" % method)


@dataclass(frozen=True)
class SamplerSpec:
    """A picklable recipe for building a sampler.

    Configured :class:`~repro.core.sampling.base.Sampler` objects can
    carry trace-derived state (timer periods, drawn phases), which is
    exactly what must *not* cross a process boundary: the execution
    engine ships (method, granularity) pairs to workers and lets each
    worker build the sampler against its own view of the trace, with
    its own cell-seeded RNG.  The spec is the unit of transport.
    """

    method: str
    granularity: int

    def __post_init__(self) -> None:
        if self.method not in METHOD_NAMES:
            raise ValueError(
                "unknown sampling method %r; expected one of %s"
                % (self.method, METHOD_NAMES)
            )
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")

    def build(
        self,
        trace: Optional[Trace] = None,
        phase: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> Sampler:
        """Materialize the sampler (see :func:`make_sampler`)."""
        return make_sampler(
            self.method, self.granularity, trace=trace, phase=phase, rng=rng
        )


def paper_methods(
    granularity: int,
    trace: Trace,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, Sampler]:
    """All five methods configured at one granularity for one trace."""
    return {
        name: make_sampler(name, granularity, trace=trace, rng=rng)
        for name in METHOD_NAMES
    }


def systematic_phases(
    granularity: int, n_replications: int, rng: np.random.Generator
) -> List[int]:
    """Distinct starting phases for systematic replications.

    When the granularity admits at least ``n_replications`` distinct
    phases they are drawn without replacement (the paper's fifty
    1-in-50 replications use all fifty phases); otherwise all available
    phases are returned.
    """
    if n_replications < 1:
        raise ValueError("need at least one replication")
    available = min(granularity, n_replications)
    chosen = rng.choice(granularity, size=available, replace=False)
    return sorted(int(p) for p in chosen)
