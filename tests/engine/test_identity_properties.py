"""Property-style bit-identity tests.

The engine's contract is that the merged result of a sweep is a pure
function of (grid, trace): worker count, shard execution order,
interrupt/resume boundaries, and recovered faults must all be
invisible in the records.  Each test here perturbs exactly one of
those axes against the same serial baseline.
"""

import random

import pytest

from repro.core.evaluation.experiment import ExperimentGrid
from repro.engine.checkpoint import record_to_json
from repro.engine.faults import FaultPlan
from repro.engine.planner import GridPlanner
from repro.engine.runner import ParallelRunner
from repro.engine.worker import ShardContext, execute_shard


def canonical(result):
    return [record_to_json(r) for r in result.records]


@pytest.fixture(scope="module")
def grid():
    # Two intervals (full trace + a 20 s prefix) exercise the window
    # cache and the interval coordinate of the shard keys.
    return ExperimentGrid(
        granularities=(32,),
        replications=2,
        intervals_us=(None, 20_000_000),
        seed=5,
    )


@pytest.fixture(scope="module")
def serial_result(grid, request):
    trace = request.getfixturevalue("minute_trace")
    return grid.run(trace)


@pytest.mark.parametrize("jobs", [2, 4])
def test_any_worker_count_is_bit_identical(
    jobs, grid, serial_result, minute_trace
):
    result = ParallelRunner(jobs=jobs).run(grid, minute_trace)
    assert canonical(result) == canonical(serial_result)


@pytest.mark.parametrize("order_seed", [1, 2, 3])
def test_shuffled_execution_order_is_invisible(
    order_seed, grid, serial_result, minute_trace
):
    """Execute the shards by hand in a random order and reassemble by
    index: cell-keyed seeding means order cannot leak into records."""
    shards = list(GridPlanner(grid).shards())
    random.Random(order_seed).shuffle(shards)
    context = ShardContext(minute_trace, grid)
    by_index = {}
    for shard in shards:
        records, _, _ = execute_shard(context, shard)
        by_index[shard.index] = records
    merged = [
        record_to_json(r)
        for index in sorted(by_index)
        for r in by_index[index]
    ]
    assert merged == canonical(serial_result)


class StopAfter:
    """Progress callback that kills the run after ``n`` shards."""

    def __init__(self, n):
        self.n = n

    def __call__(self, key, done, total):
        if done >= self.n:
            raise KeyboardInterrupt


@pytest.mark.parametrize("stops", [(1,), (7,), (3, 9, 14)])
def test_killed_and_resumed_runs_are_bit_identical(
    stops, grid, serial_result, minute_trace, tmp_path
):
    """Interrupt at one or several points, resuming each time; the
    journal replay plus re-execution must equal one clean run."""
    run_dir = str(tmp_path / "run")
    done_before = 0
    for stop in stops:
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(
                run_dir=run_dir,
                resume=done_before > 0,
                progress=StopAfter(stop),
            ).run(grid, minute_trace)
        done_before = stop
    result = ParallelRunner(run_dir=run_dir, resume=True).run(grid, minute_trace)
    assert canonical(result) == canonical(serial_result)


def test_recovered_chaos_run_is_bit_identical(
    grid, serial_result, minute_trace
):
    """Rate-based faults on first attempts: every affected shard
    retries clean, and recovery leaves no trace in the records."""
    plan = FaultPlan(
        seed=9,
        rates={"error": 0.15, "corrupt": 0.15, "slow": 0.05},
        fault_attempts=1,
        delay_s=0.01,
    )
    runner = ParallelRunner(fault_plan=plan, retry_backoff_s=0.001)
    result = runner.run(grid, minute_trace)
    assert canonical(result) == canonical(serial_result)
    summary = runner.last_telemetry.summary()
    # The plan must actually have fired for this test to mean anything.
    assert summary["retries"] >= 1
    assert summary["quarantined"] == []
