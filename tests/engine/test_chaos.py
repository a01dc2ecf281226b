"""Chaos acceptance tests: pool-level fault recovery, end to end.

These runs really kill worker processes, really hang shards past the
deadline, and really rebuild pools — then assert the merged result is
bit-identical to a fault-free serial sweep and that none of the
engine's temp dirs (the trace spill, the breadcrumbs) outlives the run.
They are the slowest tests in the suite and carry the ``chaos`` marker
so CI can run them as a dedicated job.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.evaluation.experiment import ExperimentGrid
from repro.engine.checkpoint import record_to_json
from repro.engine.faults import Fault, FaultPlan
from repro.engine.planner import GridPlanner
from repro.engine.runner import ParallelRunner, QuarantinedShards
from repro.workload.generator import nsfnet_hour_trace

pytestmark = pytest.mark.chaos


def canonical(result):
    return [record_to_json(r) for r in result.records]


def leaked_dirs():
    """Engine temp dirs this process still owns in the temp root.

    The runner stamps its dirs with its pid, so other processes' dirs
    never count; CI points ``TMPDIR`` at a fresh directory and also
    fails if any ``repro-*`` entry is left there after the suite.
    """
    stamp = "-%d-" % os.getpid()
    return [
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith("repro-") and stamp in name
    ]


@pytest.fixture(scope="module")
def grid():
    return ExperimentGrid(granularities=(16, 128), replications=2, seed=23)


@pytest.fixture(scope="module")
def shards(grid):
    return GridPlanner(grid).shards()


@pytest.fixture(scope="module")
def serial_result(grid, request):
    trace = request.getfixturevalue("minute_trace")
    return grid.run(trace)


def test_chaos_run_is_bit_identical_to_fault_free_serial(
    grid, shards, serial_result, minute_trace, tmp_path
):
    """The acceptance bar: kill or hang >= 10% of shards mid-sweep and
    the recovered grid still equals a fault-free serial run exactly."""
    assert len(shards) == 20
    plan = (
        FaultPlan(hang_s=15.0)
        # 5 of 20 shards (25%) disrupted on their first attempt:
        # two worker deaths, one hang past the deadline, one corrupted
        # result, one plain worker exception.
        .inject(shards[1].key, Fault("crash"))
        .inject(shards[8].key, Fault("crash"))
        .inject(shards[12].key, Fault("hang", hang_s=15.0))
        .inject(shards[5].key, Fault("corrupt"))
        .inject(shards[16].key, Fault("error"))
    )
    run_dir = os.environ.get("CHAOS_RUN_DIR") or str(tmp_path / "chaos-run")

    runner = ParallelRunner(
        jobs=2,
        run_dir=run_dir,
        shard_timeout_s=2.0,
        retry_backoff_s=0.01,
        fault_plan=plan,
    )
    result = runner.run(grid, minute_trace)

    assert canonical(result) == canonical(serial_result)
    assert leaked_dirs() == []

    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    assert manifest["quarantined"] == []
    # Crashes arriving close together can coalesce into one collapse,
    # and a crash kill may requeue the hang shard (free: its worker
    # exits by the teardown's SIGTERM) before its own deadline fires —
    # but every disrupted shard is charged exactly one failed attempt,
    # and at least one rebuild must have happened.
    assert manifest["pool_rebuilds"] >= 1
    assert manifest["retries"] >= 5
    assert manifest["degraded_to_serial"] is False
    assert manifest["chaos"]["explicit"]
    assert manifest["shards_total"] == 20
    assert manifest["shards_executed"] == 20


def test_pool_poison_shard_is_quarantined_not_fatal(
    grid, shards, serial_result, minute_trace, tmp_path
):
    poison = shards[3]
    plan = FaultPlan().inject(poison.key, Fault("error"), attempts=None)
    run_dir = str(tmp_path / "run")
    runner = ParallelRunner(
        jobs=2,
        run_dir=run_dir,
        max_attempts=2,
        retry_backoff_s=0.01,
        fault_plan=plan,
    )
    with pytest.warns(QuarantinedShards, match=poison.key):
        result = runner.run(grid, minute_trace)

    assert runner.quarantined.keys() == {poison.key}
    expected = [
        record_to_json(r)
        for r in serial_result.records
        if not (
            r.method == poison.spec.method
            and r.granularity == poison.spec.granularity
            and r.replication == poison.replication
        )
    ]
    assert canonical(result) == expected
    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    assert manifest["quarantined"] == [poison.key]
    assert leaked_dirs() == []


def test_repeated_collapse_degrades_to_serial_and_finishes(
    grid, shards, serial_result, minute_trace
):
    """A shard that kills every worker it touches forces rebuilds; after
    ``max_pool_rebuilds`` the engine finishes the sweep in-process
    rather than dying with the pool."""
    poison = shards[7]
    plan = FaultPlan().inject(poison.key, Fault("crash"), attempts=None)

    runner = ParallelRunner(
        jobs=2,
        max_attempts=3,
        max_pool_rebuilds=1,
        retry_backoff_s=0.01,
        fault_plan=plan,
    )
    with pytest.warns(QuarantinedShards):
        result = runner.run(grid, minute_trace)

    summary = runner.last_telemetry.summary()
    assert summary["degraded_to_serial"] is True
    assert summary["pool_rebuilds"] == 2
    assert summary["quarantined"] == [poison.key]
    expected = [
        record_to_json(r)
        for r in serial_result.records
        if not (
            r.method == poison.spec.method
            and r.granularity == poison.spec.granularity
            and r.replication == poison.replication
        )
    ]
    assert canonical(result) == expected
    assert leaked_dirs() == []


def test_crash_does_not_charge_the_siblings_it_takes_down():
    """A worker crash breaks the pool, and CPython's teardown SIGTERMs
    the surviving workers mid-shard.  Their breadcrumbs survive that
    kill, but only the crashing shard may be charged: a slowed sibling
    requeues free, so at ``max_attempts=1`` it is not quarantined."""
    trace = nsfnet_hour_trace(seed=3, duration_s=60)
    grid = ExperimentGrid(
        methods=("systematic",), granularities=(2, 4, 8, 16), replications=2, seed=1
    )
    sibling, crasher = "full/systematic/g2/r0", "full/systematic/g4/r1"
    plan = (
        FaultPlan()
        .inject(sibling, Fault("slow", delay_s=1.5))
        .inject(crasher, Fault("crash"))
    )
    runner = ParallelRunner(
        jobs=2, max_attempts=1, retry_backoff_s=0.01, fault_plan=plan
    )
    with pytest.warns(QuarantinedShards, match=crasher):
        result = runner.run(grid, trace)

    assert runner.quarantined.keys() == {crasher}
    expected = [
        record_to_json(r)
        for r in grid.run(trace).records
        if (r.granularity, r.replication) != (4, 1)
    ]
    assert canonical(result) == expected
    summary = runner.last_telemetry.summary()
    charged = [
        e["shard"] for e in summary["events"] if e["kind"] in ("retry", "quarantine")
    ]
    assert sibling not in charged
    assert leaked_dirs() == []


#: A two-worker sweep whose every shard sleeps 20 s before its work.
_SLOW_SWEEP = (
    "from repro.core.evaluation.experiment import ExperimentGrid\n"
    "from repro.engine.faults import FaultPlan\n"
    "from repro.engine.runner import ParallelRunner\n"
    "from repro.workload.generator import nsfnet_hour_trace\n"
    "grid = ExperimentGrid(methods=('systematic',), granularities=(2, 4, 8, 16),"
    " replications=1, seed=1)\n"
    "plan = FaultPlan.from_spec('slow=1,slow_s=20')\n"
    "ParallelRunner(jobs=2, fault_plan=plan).run(grid, nsfnet_hour_trace(seed=3,"
    " duration_s=10))\n"
)


def running(pid):
    """Whether ``pid`` is a process that has not exited (not a zombie)."""
    try:
        with open("/proc/%d/stat" % pid) as stream:
            stat = stream.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_sigkilled_runner_leaves_no_worker(tmp_path):
    """A SIGKILLed runner cannot tear its pool down; its workers see
    their parent gone and end themselves within a few seconds."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runner = subprocess.Popen(
        [sys.executable, "-c", _SLOW_SWEEP],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        # Each worker names its breadcrumb for its pid while it holds a
        # (slow) shard.
        deadline = time.monotonic() + 120
        while len(workers) < 2:
            assert runner.poll() is None, "the sweep ended before its workers ran"
            assert time.monotonic() < deadline, "no worker took a shard"
            time.sleep(0.1)
            workers = [
                int(name)
                for crumbs in tmp_path.glob("repro-crumbs-%d-*" % runner.pid)
                for name in os.listdir(crumbs)
            ]
        runner.kill()
        runner.wait(timeout=30)
        deadline = time.monotonic() + 5
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [pid for pid in workers if running(pid)] == []
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait(timeout=30)
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
