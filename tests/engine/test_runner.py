"""The execution engine's correctness contract.

Parallel results must be bit-identical to serial, and an interrupted
run resumed from its checkpoint must equal an uninterrupted one.
"""

import json
from pathlib import Path

import pytest

from repro.core.evaluation.experiment import ExperimentGrid
from repro.engine.checkpoint import CheckpointError, record_to_json
from repro.engine.runner import ParallelRunner, run_grid


def canonical(result):
    """Records as lossless JSON dicts (record dataclasses hold numpy
    arrays, so ``==`` on them is ambiguous)."""
    return [record_to_json(r) for r in result.records]


@pytest.fixture(scope="module")
def grid():
    """All five methods — the randomized ones are what seeding bugs
    would break — over two granularities and an interval split."""
    return ExperimentGrid(
        granularities=(16, 128),
        intervals_us=(None, 20_000_000),
        replications=2,
        seed=11,
    )


@pytest.fixture(scope="module")
def serial_result(grid, request):
    trace = request.getfixturevalue("minute_trace")
    return grid.run(trace)


class TestParallelIdentity:
    def test_jobs4_bit_identical_to_jobs1(self, grid, serial_result, minute_trace):
        parallel = grid.run(minute_trace, jobs=4)
        assert canonical(parallel) == canonical(serial_result)

    def test_record_order_is_canonical(self, serial_result, grid):
        """Interval outermost, then method, granularity, replication,
        target — the order the serial harness has always produced."""
        first = serial_result.records[0]
        assert first.interval_us is None
        assert first.method == grid.methods[0]
        assert first.granularity == 16
        assert first.replication == 0
        targets = [r.target for r in serial_result.records[:2]]
        assert targets == ["packet-size", "interarrival"]

    def test_subgrid_cells_match_fullgrid_cells(self, grid, serial_result, minute_trace):
        """Cell-keyed seeding: dropping rows from the grid must not
        change the draws of the cells that remain."""
        subgrid = ExperimentGrid(
            methods=("stratified", "random"),
            granularities=(128,),
            intervals_us=(20_000_000,),
            replications=2,
            seed=11,
        )
        sub = subgrid.run(minute_trace)
        full_cells = serial_result.filter(
            granularity=128, interval_us=20_000_000
        )
        for record in sub.records:
            matches = [
                r
                for r in full_cells.records
                if r.method == record.method
                and r.replication == record.replication
                and r.target == record.target
            ]
            assert len(matches) == 1
            assert record_to_json(matches[0]) == record_to_json(record)


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_result(
        self, grid, serial_result, minute_trace, tmp_path
    ):
        run_dir = str(tmp_path / "run")

        class StopAfter:
            def __init__(self, n):
                self.n = n

            def __call__(self, key, done, total):
                if done >= self.n:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_grid(grid, minute_trace, run_dir=run_dir, progress=StopAfter(3))

        resumed = ParallelRunner(run_dir=run_dir, resume=True)
        result = resumed.run(grid, minute_trace)
        assert canonical(result) == canonical(serial_result)

        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        assert manifest["shards_skipped"] == 3
        assert manifest["shards_executed"] == manifest["shards_total"] - 3

    def test_resume_of_complete_run_executes_nothing(
        self, grid, serial_result, minute_trace, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        run_grid(grid, minute_trace, run_dir=run_dir)
        result = run_grid(grid, minute_trace, run_dir=run_dir, resume=True)
        assert canonical(result) == canonical(serial_result)
        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        assert manifest["shards_executed"] == 0
        assert manifest["shards_skipped"] == manifest["shards_total"]

    def test_resume_with_different_grid_refused(self, grid, minute_trace, tmp_path):
        run_dir = str(tmp_path / "run")
        run_grid(grid, minute_trace, run_dir=run_dir)
        other = ExperimentGrid(
            granularities=(16, 128),
            intervals_us=(None, 20_000_000),
            replications=2,
            seed=12,  # different seed, incompatible checkpoints
        )
        with pytest.raises(CheckpointError, match="different grid"):
            run_grid(other, minute_trace, run_dir=run_dir, resume=True)

    def test_fresh_run_overwrites_stale_checkpoint(
        self, grid, serial_result, minute_trace, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        run_grid(grid, minute_trace, run_dir=run_dir)
        result = run_grid(grid, minute_trace, run_dir=run_dir)  # no resume
        assert canonical(result) == canonical(serial_result)
        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        assert manifest["shards_skipped"] == 0


class TestTelemetry:
    def test_manifest_contents(self, grid, minute_trace, tmp_path):
        run_dir = str(tmp_path / "run")
        runner = ParallelRunner(run_dir=run_dir)
        runner.run(grid, minute_trace)
        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        assert manifest["jobs"] == 1
        assert manifest["shards_total"] == len(grid.methods) * 2 * 2 * 2
        assert manifest["wall_s"] > 0
        assert 0 < manifest["worker_utilization"] <= 1.0
        assert len(manifest["shards"]) == manifest["shards_total"]
        for shard in manifest["shards"]:
            assert shard["packets"] > 0
            assert shard["wall_s"] >= 0

    def test_progress_callback_sees_every_shard(self, grid, minute_trace):
        seen = []
        run_grid(
            grid,
            minute_trace,
            progress=lambda key, done, total: seen.append((key, done, total)),
        )
        total = len(grid.methods) * 2 * 2 * 2
        assert len(seen) == total
        assert seen[-1][1:] == (total, total)


class TestValidation:
    def test_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelRunner(jobs=0)

    def test_resume_needs_run_dir(self):
        with pytest.raises(ValueError, match="run_dir"):
            ParallelRunner(resume=True)
