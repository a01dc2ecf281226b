"""Sample evaluation: targets, scoring, and the experiment harness.

This is Section 7 of the paper as a library: characterization targets
define what per-packet attribute is being assessed and how it is
binned; :func:`score_sample` turns (parent trace, sampling result,
target) into disparity scores; and :class:`ExperimentGrid` sweeps the
four experimental dimensions — method, trigger, granularity, interval
— with replications.
"""

from repro.core.evaluation.targets import (
    CharacterizationTarget,
    INTERARRIVAL_TARGET,
    PACKET_SIZE_TARGET,
    PAPER_TARGETS,
)
from repro.core.evaluation.comparison import (
    SampleScore,
    bin_id_proportions,
    population_proportions,
    score_sample,
)
from repro.core.evaluation.experiment import (
    ExperimentGrid,
    ExperimentResult,
    PAPER_GRANULARITIES,
    mean_phi_series,
    phi_values,
)
from repro.core.evaluation.report import (
    format_histogram_table,
    format_series_table,
)
from repro.core.evaluation.persistence import load_result, save_result
from repro.core.evaluation.suite import (
    ChiSquareCheck,
    StudyReport,
    chi_square_phase_check,
    reproduce_study,
)
from repro.core.evaluation.planner import (
    MethodPlan,
    Recommendation,
    recommend_configuration,
)

__all__ = [
    "CharacterizationTarget",
    "INTERARRIVAL_TARGET",
    "PACKET_SIZE_TARGET",
    "PAPER_TARGETS",
    "SampleScore",
    "bin_id_proportions",
    "population_proportions",
    "score_sample",
    "ExperimentGrid",
    "ExperimentResult",
    "PAPER_GRANULARITIES",
    "mean_phi_series",
    "phi_values",
    "format_histogram_table",
    "format_series_table",
    "load_result",
    "save_result",
    "MethodPlan",
    "Recommendation",
    "recommend_configuration",
    "ChiSquareCheck",
    "StudyReport",
    "chi_square_phase_check",
    "reproduce_study",
]
