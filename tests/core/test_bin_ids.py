"""Scoring from per-packet bin ids, against binning attribute values.

:func:`score_sample` counts a sample by gathering its packets' bin ids
(:meth:`CharacterizationTarget.bin_ids`) and counting each bin.  The
property keeps the value path inline as its oracle: gather the float
attribute values, drop the NaNs, count the values below each edge and
difference the totals, and take the population's proportions the same
way.  It covers values on an edge, the interarrival target's NaN first
gap, empty and full index sets, and scoring against the full trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation.comparison import (
    bin_id_proportions,
    population_proportions,
    score_sample,
)
from repro.core.evaluation.targets import (
    INTERARRIVAL_TARGET,
    PACKET_SIZE_TARGET,
    PAPER_TARGETS,
)
from repro.core.metrics.registry import evaluate_all
from repro.core.sampling.base import SamplingResult
from repro.trace.trace import Trace

#: Sizes on, just below and just above the size edges (41, 181).
SIZES = st.one_of(st.sampled_from([40, 41, 42, 180, 181, 182]), st.integers(1, 1500))

#: Gaps on, just below and just above the interarrival edges.
GAPS_US = st.one_of(
    st.sampled_from([0, 799, 800, 801, 1199, 1200, 2399, 2400, 3599, 3600, 3601]),
    st.integers(0, 6000),
)


def value_counts(values: np.ndarray, edges) -> np.ndarray:
    """Counts of the defined values below each edge, differenced."""
    defined = values[~np.isnan(values)]
    below = [np.count_nonzero(defined < edge) for edge in edges]
    return np.diff(np.array([0, *below, defined.size], dtype=np.int64))


@st.composite
def scorings(draw):
    """A trace, a prefix window of it, and a sorted index set."""
    n = draw(st.integers(1, 150))
    gaps = draw(st.lists(GAPS_US, min_size=n - 1, max_size=n - 1))
    sizes = draw(st.lists(SIZES, min_size=n, max_size=n))
    trace = Trace(timestamps_us=np.cumsum([0] + gaps), sizes=sizes)
    window = trace.slice_packets(0, draw(st.integers(1, n)))
    m = len(window)
    kind = draw(st.sampled_from(["empty", "full", "some"]))
    if kind == "empty":
        indices = np.empty(0, dtype=np.int64)
    elif kind == "full":
        indices = np.arange(m)
    else:
        indices = np.asarray(
            sorted(draw(st.sets(st.integers(0, m - 1), max_size=m))), dtype=np.int64
        )
    return trace, window, indices


class TestScoreFromBinIds:
    @settings(max_examples=400, deadline=None)
    @given(
        case=scorings(),
        target=st.sampled_from(PAPER_TARGETS),
        against_full=st.booleans(),
    )
    def test_equals_value_path(self, case, target, against_full):
        trace, window, indices = case
        result = SamplingResult(indices, len(window), "given", {})
        parent = trace if against_full else window
        population = value_counts(target.attribute_values(parent), target.bins.edges)
        if population.sum() == 0:
            with pytest.raises(ValueError, match="empty sample"):
                population_proportions(parent, target)
            return
        proportions = population / float(population.sum())
        values = target.attribute_values(window)[indices]
        observed = value_counts(values, target.bins.edges)
        expected = evaluate_all(observed, proportions, fraction=result.fraction)

        assert np.array_equal(population_proportions(parent, target), proportions)
        score = score_sample(
            window,
            result,
            target,
            proportions=population_proportions(parent, target),
            bin_ids=target.bin_ids(window),
        )
        assert score.observed.dtype == np.int64
        assert np.array_equal(score.observed, observed)
        assert score.sample_size == int(observed.sum())
        assert score.scores == expected
        if not against_full:
            assert score_sample(window, result, target).scores == expected


class TestBinIds:
    def test_edges_belong_to_the_bin_above(self):
        trace = Trace(timestamps_us=np.zeros(6), sizes=[40, 41, 180, 181, 1500, 1])
        assert PACKET_SIZE_TARGET.bin_ids(trace).tolist() == [0, 1, 1, 2, 2, 0]

    def test_undefined_first_gap_is_n_bins(self, tiny_trace):
        ids = INTERARRIVAL_TARGET.bin_ids(tiny_trace)
        assert ids.dtype == np.uint8
        assert ids[0] == INTERARRIVAL_TARGET.bins.n_bins
        assert INTERARRIVAL_TARGET.bin_id_counts(ids).sum() == len(tiny_trace) - 1

    def test_proportions_from_ids(self, minute_trace):
        for target in PAPER_TARGETS:
            ids = target.bin_ids(minute_trace)
            assert np.array_equal(
                bin_id_proportions(target, ids),
                target.bins.proportions(target.population_values(minute_trace)),
            )
