"""Metrics-kernel smoke benchmark: the per-target scoring pipeline.

The engine-scaling benchmark times the orchestration layer; this one
times the metric kernels it dispatches.  For each paper target the
full scoring pipeline is measured — binning the population into
per-packet bin ids, its proportions from those ids, and φ scoring of a
1-in-50 systematic sample of the calibrated hour, as the engine's
workers score a window — plus synthetic trace generation, the other
full-trace scan in the hot path.

Individual kernels (sampling, the φ sum itself) run in microseconds,
far too noisy for a regression gate; the pipeline aggregates are tens
of milliseconds and stable.  Binning the whole population dominates
them, though, so the scorer gets a leg of its own: ``evaluate_all``
run 1,000 times over the hour's 1-in-50 counts of both targets, the
call every scoring site makes.  The timer samplers' search over the
hour's timestamps gets one too: both timer methods drawn at each of
the paper's 15 granularities, as one sweep of the grid does.  Each
metric is timed over a fixed number of rounds with
``time.perf_counter`` and the best round is recorded (min-of-N: the
minimum is the least noisy estimator on a shared machine).  The record is written next to this
file as ``bench_metrics_smoke.json`` for the CI regression gate.
"""

import json
import os
import time

import numpy as np

from repro.core.evaluation.comparison import (
    bin_id_proportions,
    population_proportions,
    score_sample,
)
from repro.core.evaluation.experiment import PAPER_GRANULARITIES
from repro.core.evaluation.targets import PAPER_TARGETS
from repro.core.metrics.registry import evaluate_all
from repro.core.sampling.factory import make_sampler
from repro.workload.generator import TraceGenerator

GRANULARITY = 50
ROUNDS = 5
SCORE_CALLS = 1000
TIMER_METHODS = ("timer-systematic", "timer-stratified")


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_metrics_smoke(hour_trace, emit):
    sampler = make_sampler("systematic", GRANULARITY)
    result = sampler.sample(hour_trace)
    assert result.sample_size > 10_000

    walls = {}
    walls["trace_generation_300s"] = _best_of(
        ROUNDS, lambda: TraceGenerator(seed=3, duration_s=300).generate()
    )
    for target in PAPER_TARGETS:

        def run(target=target):
            bin_ids = target.bin_ids(hour_trace)
            return score_sample(
                hour_trace,
                result,
                target,
                proportions=bin_id_proportions(target, bin_ids),
                bin_ids=bin_ids,
            )

        assert run().phi >= 0
        walls["pipeline_%s" % target.name] = _best_of(ROUNDS, run)

    pairs = [
        (
            target.bins.counts(target.sample_values(hour_trace, result.indices)),
            population_proportions(hour_trace, target),
        )
        for target in PAPER_TARGETS
    ]

    def score_all():
        for _ in range(SCORE_CALLS // len(pairs)):
            for observed, proportions in pairs:
                evaluate_all(observed, proportions, result.fraction)

    walls["evaluate_all_x%d" % SCORE_CALLS] = _best_of(ROUNDS, score_all)

    timers = [
        make_sampler(method, granularity, hour_trace)
        for method in TIMER_METHODS
        for granularity in PAPER_GRANULARITIES
    ]

    def draw_timers():
        rng = np.random.default_rng(0)
        for timer in timers:
            timer.sample(hour_trace, rng=rng)

    walls["timer_samplers_x%d" % len(timers)] = _best_of(ROUNDS, draw_timers)

    record = {
        "benchmark": "metrics_smoke",
        "packets": len(hour_trace),
        "granularity": GRANULARITY,
        "rounds": ROUNDS,
        "cpu_count": os.cpu_count(),
        "wall_s": {name: round(wall, 4) for name, wall in walls.items()},
    }
    out_path = os.path.join(
        os.path.dirname(__file__), "bench_metrics_smoke.json"
    )
    with open(out_path, "w") as stream:
        json.dump(record, stream, indent=2)
        stream.write("\n")
    emit("metrics smoke: %s" % json.dumps(record, indent=2))
