"""Differential battery: one control law, identical under every execution.

The adaptive pipeline's contract is that execution strategy is
invisible to the control loop: per-packet streaming vs chunked
fast-path kernels, any chunk size, and interrupt/resume all produce
bit-identical decision logs, keep counts, and window series.  These
tests pin that contract for all three selector families.
"""

import pytest

from repro.adaptive import (
    AccuracyFirstPolicy,
    AdaptiveController,
    AdaptivePipeline,
    BudgetFirstPolicy,
    ControllerConfig,
    run_adaptive,
)
from repro.core.metrics.registry import evaluate_all
from repro.fastpath.pipeline import iter_trace_chunks
from repro.obs.live.monitor import QualityMonitor

METHODS = ("systematic", "stratified", "timer-systematic")
WINDOW_US = 5_000_000


def agile_config(**overrides):
    defaults = dict(
        initial_granularity=64,
        step_finer_windows=1,
        step_coarser_windows=2,
        cooldown_windows=1,
        seed=9,
    )
    defaults.update(overrides)
    return ControllerConfig(**defaults)


def adaptive_run(trace, method, *, fastpath, chunk_packets=65_536, policy=None):
    controller = AdaptiveController(
        policy or AccuracyFirstPolicy(phi_tol=0.08), agile_config()
    )
    return run_adaptive(
        trace,
        controller,
        method=method,
        window_us=WINDOW_US,
        min_scored=2,
        fastpath=fastpath,
        chunk_packets=chunk_packets,
    )


def fingerprint(result):
    return (
        result.kept,
        result.offered,
        result.decisions,
        result.windows,
        result.controller.snapshot(),
    )


class TestFastpathIdentity:
    @pytest.mark.parametrize("method", METHODS)
    def test_fastpath_matches_per_packet(self, bursty_trace, method):
        streamed = adaptive_run(bursty_trace, method, fastpath=False)
        chunked = adaptive_run(bursty_trace, method, fastpath=True)
        # The run genuinely adapted — identity over a static run would
        # prove nothing about re-keying.
        assert streamed.rate_changes >= 3
        assert fingerprint(streamed) == fingerprint(chunked)

    @pytest.mark.parametrize("method", METHODS)
    def test_store_metrics_match(self, bursty_trace, method):
        streamed = adaptive_run(bursty_trace, method, fastpath=False)
        chunked = adaptive_run(bursty_trace, method, fastpath=True)
        for name in (
            "adaptive_windows",
            "adaptive_rate_changes",
            "adaptive_steps_finer",
            "adaptive_steps_coarser",
            "monitor_packets_offered",
            "monitor_packets_sampled",
        ):
            assert (
                streamed.monitor.store.counter(name).value
                == chunked.monitor.store.counter(name).value
            ), name

    def test_budget_policy_identical_too(self, bursty_trace):
        streamed = adaptive_run(
            bursty_trace,
            "systematic",
            fastpath=False,
            policy=BudgetFirstPolicy(budget_pps=12.0),
        )
        chunked = adaptive_run(
            bursty_trace,
            "systematic",
            fastpath=True,
            policy=BudgetFirstPolicy(budget_pps=12.0),
        )
        assert streamed.rate_changes >= 2
        assert fingerprint(streamed) == fingerprint(chunked)


class TestChunkingInvariance:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("chunk_packets", (1, 997, 8192))
    def test_any_chunking_matches_reference(
        self, bursty_trace, method, chunk_packets
    ):
        reference = adaptive_run(bursty_trace, method, fastpath=True)
        rechunked = adaptive_run(
            bursty_trace, method, fastpath=True, chunk_packets=chunk_packets
        )
        assert fingerprint(reference) == fingerprint(rechunked)


class TestResume:
    @pytest.mark.parametrize("method", ("systematic", "timer-systematic"))
    def test_controller_resume_mid_run(self, bursty_trace, method):
        """Snapshot/restore halfway through matches the unbroken run."""
        uninterrupted = adaptive_run(bursty_trace, method, fastpath=True)

        controller = AdaptiveController(
            AccuracyFirstPolicy(phi_tol=0.08), agile_config()
        )
        monitor = QualityMonitor(window_us=WINDOW_US, min_scored=2)
        unit_period = bursty_trace.duration_us / (len(bursty_trace) - 1)
        pipeline = AdaptivePipeline(
            method,
            controller,
            monitor,
            unit_period_us=unit_period if method == "timer-systematic" else 0.0,
        )
        chunks = list(iter_trace_chunks(bursty_trace, 8192))
        half = len(chunks) // 2
        assert half >= 1
        for chunk in chunks[:half]:
            pipeline.process_chunk(chunk)

        # Checkpoint the five integers, restore into a fresh
        # controller, splice it into the pipeline, and keep going.
        state = controller.snapshot()
        resumed = AdaptiveController(
            AccuracyFirstPolicy(phi_tol=0.08), agile_config()
        )
        resumed.restore(state)
        resumed.decisions.extend(controller.decisions)
        resumed.changes = state["changes"]
        pipeline.controller = resumed
        for chunk in chunks[half:]:
            pipeline.process_chunk(chunk)
        pipeline.flush()

        assert pipeline.kept == uninterrupted.kept
        assert resumed.decisions == uninterrupted.decisions
        assert resumed.snapshot() == uninterrupted.controller.snapshot()


class TestRunShape:
    def test_result_accounting(self, bursty_trace):
        result = adaptive_run(bursty_trace, "systematic", fastpath=True)
        assert result.offered == len(bursty_trace)
        assert 0 < result.kept < result.offered
        assert result.sampled_fraction == result.kept / result.offered
        assert len(result.windows) == len(result.decisions)
        assert result.mean_phi("packet-size") is not None
        assert result.aggregate_phi("packet-size") is not None
        used = result.granularities_used()
        assert len(used) >= 2 and used[0] == 64

    def test_aggregate_phi_is_evaluate_all_of_the_run_totals(self, bursty_trace):
        result = adaptive_run(bursty_trace, "systematic", fastpath=True)
        histograms = result.monitor.store.histograms()
        for target in ("packet-size", "interarrival"):
            safe = target.replace("-", "_")
            parent = histograms[safe + "_parent"]
            sampled = histograms[safe + "_sampled"]
            scores = evaluate_all(
                sampled.counts,
                parent.counts / float(parent.total),
                sampled.total / parent.total,
            )
            assert result.aggregate_phi(target) == scores.phi

    def test_decisions_line_up_with_windows(self, bursty_trace):
        result = adaptive_run(bursty_trace, "systematic", fastpath=True)
        for decision, window in zip(result.decisions, result.windows):
            assert decision.window == window["window"]
            assert decision.offered == window["offered"]
            assert decision.sampled == window["sampled"]
