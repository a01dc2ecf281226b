"""The flow-accounting passivity contract, pinned bit-for-bit.

Flow accounting must be strictly downstream of selection: turning it
on may never change a keep/skip decision, a scored record, or a
digest.  These tests run the same streams and sweeps with accounting
on and off and require exact equality.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.evaluation.experiment import ExperimentGrid
from repro.core.sampling.streaming import (
    StreamingReservoir,
    StreamingStratified,
)
from repro.engine.checkpoint import record_to_json
from repro.engine.planner import GridPlanner
from repro.engine.runner import run_grid
from repro.engine.worker import ShardContext, execute_shard
from repro.flows.sampled import NULL_ACCOUNTANT, StreamFlowAccountant
from repro.flows.table import iter_flow_keys


def canonical(result):
    return [record_to_json(r) for r in result.records]


class TestStreamingPassivity:
    """Accounted and bare selector runs make identical decisions."""

    def _decisions(self, trace, selector, accountant):
        kept = []
        for timestamp, size, key in iter_flow_keys(trace):
            keep = selector.offer(timestamp)
            accountant.observe(timestamp, size, key, keep)
            kept.append(keep)
        accountant.flush()
        return kept

    def test_randomized_selector_unperturbed(self, minute_trace):
        """A stratified selector consumes RNG draws per bucket; the
        accountant must not shift that stream by a single draw."""
        bare = self._decisions(
            minute_trace,
            StreamingStratified(50, rng=np.random.default_rng(42)),
            NULL_ACCOUNTANT,
        )
        accounted = self._decisions(
            minute_trace,
            StreamingStratified(50, rng=np.random.default_rng(42)),
            StreamFlowAccountant(),
        )
        assert bare == accounted

    def test_reservoir_selection_unperturbed(self, minute_trace):
        """Reservoir sampling draws per packet — the harshest check."""

        def final_sample(accountant):
            reservoir = StreamingReservoir(
                200, rng=np.random.default_rng(7)
            )
            for timestamp, size, key in iter_flow_keys(minute_trace):
                reservoir.offer(timestamp)
                accountant.observe(timestamp, size, key, False)
            accountant.flush()
            return reservoir.positions()

        bare = final_sample(NULL_ACCOUNTANT)
        accounted = final_sample(StreamFlowAccountant())
        assert bare.tolist() == accounted.tolist()


@pytest.fixture(scope="module")
def grids():
    common = dict(
        granularities=(32,),
        replications=2,
        intervals_us=(None, 20_000_000),
        seed=5,
    )
    return (
        ExperimentGrid(**common),
        ExperimentGrid(flow_stats=True, **common),
    )


class TestEnginePassivity:
    def test_records_identical_with_flow_stats(self, grids, minute_trace):
        bare_grid, flows_grid = grids
        bare = run_grid(bare_grid, minute_trace)
        accounted = run_grid(flows_grid, minute_trace)
        assert canonical(bare) == canonical(accounted)

    def test_shard_flows_only_when_enabled(self, grids, minute_trace):
        bare_grid, flows_grid = grids
        shard = next(iter(GridPlanner(flows_grid).shards()))
        records_off, packets_off, flows_off = execute_shard(
            ShardContext(minute_trace, bare_grid), shard
        )
        records_on, packets_on, flows_on = execute_shard(
            ShardContext(minute_trace, flows_grid), shard
        )
        assert flows_off is None
        assert flows_on is not None
        assert flows_on["parent_flows"] > 0
        assert flows_on["sampled_flows"] <= flows_on["parent_flows"]
        assert packets_off == packets_on
        assert [record_to_json(r) for r in records_off] == [
            record_to_json(r) for r in records_on
        ]

    def test_manifest_carries_flow_summaries(
        self, grids, minute_trace, tmp_path
    ):
        _, flows_grid = grids
        run_dir = str(tmp_path / "run")
        run_grid(flows_grid, minute_trace, run_dir=run_dir, jobs=2)
        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        for shard in manifest["shards"]:
            assert "flows" in shard
            assert shard["flows"]["parent_flows"] >= shard["flows"][
                "sampled_flows"
            ]

    def test_manifest_omits_flows_when_disabled(
        self, grids, minute_trace, tmp_path
    ):
        bare_grid, _ = grids
        run_dir = str(tmp_path / "run")
        run_grid(bare_grid, minute_trace, run_dir=run_dir)
        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        for shard in manifest["shards"]:
            assert "flows" not in shard

    def test_resume_across_flag_change(self, grids, minute_trace, tmp_path):
        """flow_stats is observational: a journal written without it
        must still resume a run with it on (same fingerprint)."""
        bare_grid, flows_grid = grids
        run_dir = str(tmp_path / "run")
        run_grid(bare_grid, minute_trace, run_dir=run_dir)
        result = run_grid(
            flows_grid, minute_trace, run_dir=run_dir, resume=True
        )
        baseline = run_grid(bare_grid, minute_trace)
        assert canonical(result) == canonical(baseline)
