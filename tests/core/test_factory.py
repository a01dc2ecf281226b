"""Sampler factory and replication-phase helpers."""

import numpy as np
import pytest

from repro.core.sampling.factory import (
    METHOD_NAMES,
    make_sampler,
    paper_methods,
    systematic_phases,
)
from repro.core.sampling.simple import SimpleRandomSampler
from repro.core.sampling.stratified import StratifiedRandomSampler
from repro.core.sampling.systematic import SystematicSampler
from repro.core.sampling.timer import (
    TimerStratifiedSampler,
    TimerSystematicSampler,
)


class TestMakeSampler:
    def test_dispatch(self, minute_trace):
        assert isinstance(make_sampler("systematic", 50), SystematicSampler)
        assert isinstance(make_sampler("stratified", 50), StratifiedRandomSampler)
        assert isinstance(make_sampler("random", 50), SimpleRandomSampler)
        assert isinstance(
            make_sampler("timer-systematic", 50, trace=minute_trace),
            TimerSystematicSampler,
        )
        assert isinstance(
            make_sampler("timer-stratified", 50, trace=minute_trace),
            TimerStratifiedSampler,
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown sampling method"):
            make_sampler("bogus", 50)

    @pytest.mark.parametrize("seeded", [False, True], ids=["no-rng", "rng"])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_zero_granularity_is_rejected(self, method, seeded, minute_trace):
        # Checked before the random systematic phase is drawn from
        # [0, granularity), which numpy would reject on its own terms.
        rng = np.random.default_rng(0) if seeded else None
        with pytest.raises(ValueError, match=r"granularity must be >= 1, got 0"):
            make_sampler(method, 0, trace=minute_trace, rng=rng)

    def test_timer_requires_trace(self):
        with pytest.raises(ValueError, match="trace"):
            make_sampler("timer-systematic", 50)

    def test_explicit_phase(self):
        sampler = make_sampler("systematic", 50, phase=7)
        assert sampler.phase == 7

    def test_random_phase_with_rng(self):
        rng = np.random.default_rng(0)
        phases = {make_sampler("systematic", 50, rng=rng).phase for _ in range(20)}
        assert len(phases) > 1
        assert all(0 <= p < 50 for p in phases)

    def test_no_rng_means_zero_phase(self):
        assert make_sampler("systematic", 50).phase == 0

    def test_random_timer_phase_with_rng(self, minute_trace):
        rng = np.random.default_rng(0)
        sampler = make_sampler("timer-systematic", 50, trace=minute_trace, rng=rng)
        assert 0 <= sampler.phase_us < sampler.period_us


class TestPaperMethods:
    def test_all_five(self, minute_trace):
        methods = paper_methods(64, minute_trace)
        assert set(methods) == set(METHOD_NAMES)

    def test_method_names_constant(self):
        assert METHOD_NAMES == (
            "systematic",
            "stratified",
            "random",
            "timer-systematic",
            "timer-stratified",
        )


class TestSystematicPhases:
    def test_all_fifty_phases(self):
        rng = np.random.default_rng(0)
        phases = systematic_phases(50, 50, rng)
        assert sorted(phases) == list(range(50))

    def test_subset_without_replacement(self):
        rng = np.random.default_rng(0)
        phases = systematic_phases(1000, 5, rng)
        assert len(phases) == 5
        assert len(set(phases)) == 5

    def test_limited_by_granularity(self):
        rng = np.random.default_rng(0)
        phases = systematic_phases(4, 10, rng)
        assert sorted(phases) == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            systematic_phases(50, 0, np.random.default_rng(0))
