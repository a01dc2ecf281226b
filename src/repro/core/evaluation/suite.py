"""The whole paper's analysis as one callable: ``reproduce_study``.

The benchmark suite regenerates the paper's tables and figures on the
calibrated synthetic hour.  A downstream user usually wants the same
analysis on *their own* trace: which sampling methods are safe on my
traffic, at what fraction, and what does the φ landscape look like?

:func:`reproduce_study` packages the paper's experiment families —
population summary, Cochran sample sizes, the method × granularity φ
sweep, the fifty-phase χ² compatibility test, and the φ-budget
recommendation — into a single structured result with a text report.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.evaluation.comparison import bin_id_proportions
from repro.core.evaluation.experiment import ExperimentGrid, ExperimentResult
from repro.core.evaluation.planner import Recommendation, recommend_configuration
from repro.core.evaluation.report import format_series_table
from repro.core.evaluation.targets import PAPER_TARGETS
from repro.core.metrics.chisquare import chi_square_test
from repro.core.sampling.factory import METHOD_NAMES
from repro.core.sampling.systematic import SystematicSampler
from repro.core.samplesize import plan_for_population
from repro.stats.describe import Description, describe
from repro.trace.trace import Trace

#: Granularity ladders for the two effort levels.
QUICK_GRANULARITIES = (16, 256, 4096)
FULL_GRANULARITIES = (4, 16, 64, 256, 1024, 4096, 16384)


@dataclass(frozen=True)
class ChiSquareCheck:
    """Fifty-phase compatibility outcome for one target."""

    target: str
    granularity: int
    phases: int
    rejections: int

    @property
    def compatible(self) -> bool:
        """Loosely, the paper's verdict: rejections near the nominal rate."""
        return self.rejections <= max(0.15 * self.phases, 3)


@dataclass(frozen=True)
class StudyReport:
    """Everything :func:`reproduce_study` produces."""

    packets: int
    duration_s: float
    size_summary: Description
    interarrival_summary: Description
    sample_size_plans: Dict[str, Tuple[int, int]]
    sweep: ExperimentResult
    chi_square_checks: Tuple[ChiSquareCheck, ...]
    recommendation: Recommendation

    def render(self) -> str:
        """The full text report."""
        lines = [
            "Sampling-methodology study (%d packets, %.0f s)"
            % (self.packets, self.duration_s),
            "",
            "population:",
            self.size_summary.row("  packet size (B)", digits=0),
            self.interarrival_summary.row("  interarrival (us)", digits=0),
            "",
            "Cochran sample sizes (95% confidence):",
        ]
        for label, (n, granularity) in self.sample_size_plans.items():
            lines.append(
                "  %-24s n = %8d  -> sample 1 in %d" % (label, n, granularity)
            )
        lines.append("")
        for target in sorted({r.target for r in self.sweep.records}):
            columns = {}
            for method in METHOD_NAMES:
                subset = self.sweep.filter(target=target, method=method)
                if len(subset):
                    columns[method] = {
                        g: subset.filter(granularity=g).mean_phi()
                        for g in sorted(
                            {r.granularity for r in subset.records}
                        )
                    }
            lines.append(
                format_series_table(
                    "mean phi, target = %s" % target, "1/x", columns
                )
            )
            lines.append("")
        lines.append("chi-square compatibility (alpha = 0.05):")
        for check in self.chi_square_checks:
            lines.append(
                "  %-14s 1-in-%-5d %2d of %d phases rejected -> %s"
                % (
                    check.target,
                    check.granularity,
                    check.rejections,
                    check.phases,
                    "compatible" if check.compatible else "NOT compatible",
                )
            )
        lines.append("")
        lines.append(self.recommendation.summary())
        return "\n".join(lines)


def chi_square_phase_check(
    trace: Trace,
    granularity: int = 50,
    phases: Optional[int] = None,
    alpha: float = 0.05,
) -> Tuple[ChiSquareCheck, ...]:
    """The Section 5.2/6 test: all phases of 1-in-k vs the population."""
    n_phases = granularity if phases is None else min(phases, granularity)
    checks = []
    for target in PAPER_TARGETS:
        bin_ids = target.bin_ids(trace)
        proportions = bin_id_proportions(target, bin_ids)
        rejections = 0
        for phase in range(n_phases):
            result = SystematicSampler(granularity, phase=phase).sample(trace)
            observed = target.bin_id_counts(bin_ids[result.indices])
            if chi_square_test(observed, proportions, alpha=alpha).rejected:
                rejections += 1
        checks.append(
            ChiSquareCheck(
                target=target.name,
                granularity=granularity,
                phases=n_phases,
                rejections=rejections,
            )
        )
    return tuple(checks)


def reproduce_study(
    trace: Trace,
    quick: bool = False,
    phi_budget: float = 0.05,
    replications: int = 5,
    seed: int = 0,
    methods: Sequence[str] = METHOD_NAMES,
    runner=None,
) -> StudyReport:
    """Run the paper's analysis families on one trace.

    Parameters
    ----------
    trace:
        The parent population (a captured pcap via
        :func:`repro.trace.read_pcap`, or synthetic).
    quick:
        Use the three-point granularity ladder and fewer χ² phases;
        roughly 5x faster on large traces.
    phi_budget:
        Budget for the final configuration recommendation.
    replications, seed, methods:
        Passed to the sweep grid.
    runner:
        The :class:`repro.engine.ParallelRunner` that executes the φ
        sweep (the dominant cost): its workers, checkpoints, fault
        tolerance and observability.  ``None`` runs it inline.
    """
    if len(trace) < 1000:
        raise ValueError(
            "need at least a thousand packets for a meaningful study, "
            "got %d" % len(trace)
        )
    sizes = describe(trace.sizes)
    iats = describe(trace.interarrivals_us())
    plans = {}
    for label, summary in (
        ("packet size, r = 5%", sizes),
        ("interarrival, r = 5%", iats),
    ):
        plan = plan_for_population(
            summary.mean, summary.std, len(trace), accuracy_percent=5
        )
        plans[label] = (plan.required_samples, plan.granularity)

    grid = ExperimentGrid(
        methods=tuple(methods),
        granularities=QUICK_GRANULARITIES if quick else FULL_GRANULARITIES,
        replications=replications,
        seed=seed,
    )
    sweep = grid.run(trace) if runner is None else runner.run(grid, trace)
    checks = chi_square_phase_check(
        trace, granularity=50, phases=10 if quick else 50
    )
    recommendation = recommend_configuration(sweep, phi_budget=phi_budget)
    return StudyReport(
        packets=len(trace),
        duration_s=trace.duration_us / 1e6,
        size_summary=sizes,
        interarrival_summary=iats,
        sample_size_plans=plans,
        sweep=sweep,
        chi_square_checks=checks,
        recommendation=recommendation,
    )
