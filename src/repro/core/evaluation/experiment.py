"""The parameter-sweep experiment harness (Section 7).

"Our experiment consists of a large number of samples exploring the
domain based on: (1) class of sampling method; (2) time-driven vs.
event-driven methods; (3) granularity, or sampling fraction; (4) the
interval, or length of time over which we sample.  We ran five
replications for each method to avoid misleading outlying samples."

:class:`ExperimentGrid` expresses one such sweep declaratively and
produces a flat list of scored records; small helpers aggregate them
into the mean-phi series and boxplot inputs the paper's figures show.

Scoring population
------------------
Two conventions are supported via ``score_against``:

* ``"interval"`` (default) — the sampled window is itself the parent
  population, as in the paper's Figure 3 ("a single approximately
  half-hour (2048 second) interval of packet trace data");
* ``"full"`` — samples drawn within the window are scored against the
  whole trace's population, the reading under which Section 7.3's
  remark about non-stationarity bites (a short window is an
  unrepresentative slice of the hour no matter how densely sampled).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluation.comparison import SampleScore
from repro.core.evaluation.targets import (
    CharacterizationTarget,
    PAPER_TARGETS,
)
from repro.core.sampling.factory import METHOD_NAMES
from repro.trace.trace import Trace

#: The paper's granularity ladder: "exponentially decreasing sampling
#: fractions, starting at every other packet, and decreasing the
#: fraction down to one in 32,768 packets".
PAPER_GRANULARITIES = tuple(2**i for i in range(1, 16))

#: The granularities of Figures 4 and 5's five-way histograms.
HISTOGRAM_GRANULARITIES = (4, 64, 1024, 8192, 32768)


@dataclass(frozen=True)
class ExperimentRecord:
    """One scored sample within a sweep."""

    target: str
    method: str
    granularity: int
    interval_us: Optional[int]
    replication: int
    score: SampleScore

    @property
    def phi(self) -> float:
        """The paper's headline metric for this sample."""
        return self.score.phi


@dataclass(frozen=True)
class ExperimentResult:
    """All records of one sweep, with filtering helpers."""

    records: Tuple[ExperimentRecord, ...]

    def filter(
        self,
        target: Optional[str] = None,
        method: Optional[str] = None,
        granularity: Optional[int] = None,
        interval_us: Optional[int] = None,
    ) -> "ExperimentResult":
        """Subset records by any combination of sweep coordinates."""
        kept = [
            r
            for r in self.records
            if (target is None or r.target == target)
            and (method is None or r.method == method)
            and (granularity is None or r.granularity == granularity)
            and (interval_us is None or r.interval_us == interval_us)
        ]
        return ExperimentResult(records=tuple(kept))

    def phis(self) -> List[float]:
        """phi values of every record, in sweep order."""
        return [r.phi for r in self.records]

    def mean_phi(self) -> float:
        """Mean phi across records (e.g. across replications)."""
        values = self.phis()
        if not values:
            raise ValueError("no records to average")
        return float(np.mean(values))

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class ExperimentGrid:
    """Declarative sweep over the paper's four dimensions.

    Parameters
    ----------
    methods:
        Sampling method names (default: all five of Section 4).
    granularities:
        Bucket sizes k (fractions 1/k).
    intervals_us:
        Sampling-window lengths; ``None`` entries mean the full trace.
    replications:
        Samples per cell; the paper used five.
    seed:
        Seed controlling phases and random selections; a grid with the
        same seed reproduces exactly.  Each sweep cell derives its own
        RNG from (seed, cell key), so results are independent of
        execution order and identical at any worker count.
    score_against:
        ``"interval"`` or ``"full"`` (see module docstring).
    flow_stats:
        When true, every shard additionally aggregates its window and
        its drawn sample into flows (:mod:`repro.flows`) and reports a
        flow-level summary (parent/sampled flow counts, detected
        fraction, mean sizes) that rides each shard's result into the
        run manifest.  Purely observational: the scored records are
        bit-identical with it on or off.
    """

    methods: Sequence[str] = METHOD_NAMES
    granularities: Sequence[int] = PAPER_GRANULARITIES
    intervals_us: Sequence[Optional[int]] = (None,)
    replications: int = 5
    seed: int = 0
    score_against: str = "interval"
    targets: Sequence[CharacterizationTarget] = field(default=PAPER_TARGETS)
    flow_stats: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise ValueError("unknown methods: %s" % sorted(unknown))
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.score_against not in ("interval", "full"):
            raise ValueError(
                "score_against must be 'interval' or 'full', got %r"
                % (self.score_against,)
            )
        if any(g < 1 for g in self.granularities):
            raise ValueError("granularities must be >= 1")

    def run(self, trace: Trace) -> ExperimentResult:
        """Execute the sweep on a parent trace, inline in this process.

        This is ``ParallelRunner().run(self, trace)``: the engine
        (:mod:`repro.engine`) expands the grid into independent shards,
        one per interval × method × granularity × replication cell.
        Workers, checkpoints, fault tolerance and run directories are
        the settings of a :class:`repro.engine.ParallelRunner`; the
        records are bit-identical under any of them.
        """
        from repro.engine.runner import ParallelRunner

        return ParallelRunner().run(self, trace)

def phi_values(
    result: ExperimentResult,
    target: str,
    method: str,
    granularity: int,
    interval_us: Optional[int] = None,
) -> List[float]:
    """The replication phi values of one sweep cell."""
    return result.filter(
        target=target,
        method=method,
        granularity=granularity,
        interval_us=interval_us,
    ).phis()


def mean_phi_series(
    result: ExperimentResult,
    target: str,
    method: str,
    over: str = "granularity",
) -> Dict[int, float]:
    """Mean phi as a function of one sweep dimension.

    ``over`` is ``"granularity"`` (Figures 7-9's x-axis) or
    ``"interval_us"`` (Figures 10-11's x-axis).
    """
    if over not in ("granularity", "interval_us"):
        raise ValueError("over must be 'granularity' or 'interval_us'")
    subset = result.filter(target=target, method=method)
    keys = sorted(
        {getattr(r, over) for r in subset.records if getattr(r, over) is not None}
    )
    series = {}
    for key in keys:
        cell = subset.filter(**{over: key})
        series[key] = cell.mean_phi()
    return series
